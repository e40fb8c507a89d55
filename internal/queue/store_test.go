package queue

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"asap/internal/iofault"
	"asap/internal/resultcache"
)

func TestStorePutGetIdempotent(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	body := []byte("artifact bytes\n")
	h1, err := st.Put(body)
	if err != nil {
		t.Fatalf("put: %v", err)
	}
	if h1 != HashBytes(body) {
		t.Fatalf("hash %s != HashBytes %s", h1, HashBytes(body))
	}
	// The redelivered-job case: a second Put of the same bytes lands on
	// the same address without error.
	h2, err := st.Put(body)
	if err != nil || h2 != h1 {
		t.Fatalf("second put: %s, %v", h2, err)
	}
	got, err := st.Get(h1)
	if err != nil || !bytes.Equal(got, body) {
		t.Fatalf("get: %q, %v", got, err)
	}
	if !st.Has(h1) {
		t.Fatal("Has = false for stored object")
	}
	if st.Has(HashBytes([]byte("absent"))) {
		t.Fatal("Has = true for absent object")
	}
}

func TestStoreRejectsMalformedHashes(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []string{
		"",
		"md5-abcd",
		// A bare digest is not an address.
		HashBytes([]byte("x"))[len("sha256-"):],
		"sha256-short",
		"sha256-../../../../etc/passwd0000000000000000000000000000000000000000",
		"sha256-zzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzz",
	} {
		if _, err := st.Get(h); !errors.Is(err, iofault.ErrBadName) {
			t.Errorf("Get(%q): %v, want ErrBadName", h, err)
		}
		if _, err := st.Path(h); !errors.Is(err, iofault.ErrBadName) {
			t.Errorf("Path(%q): %v, want ErrBadName", h, err)
		}
		if st.Has(h) {
			t.Errorf("Has(%q) = true", h)
		}
	}
}

func TestStoreNoTempLitterAfterPut(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Put([]byte("x")); err != nil {
		t.Fatal(err)
	}
	var litter []string
	err = walkFiles(dir, func(path string, name string) {
		if len(name) >= 5 && name[:5] == ".tmp-" {
			litter = append(litter, path)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(litter) != 0 {
		t.Fatalf("temp files left behind: %v", litter)
	}
}

// TestOpenStoreSweepsOrphanTmpFiles: the store's open sweeps temp debris
// under objects/, where every Put stages its temp file. The sweep itself
// is TestBlobs/objects/open-sweeps-orphans in internal/iofault.
func TestOpenStoreSweepsOrphanTmpFiles(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	hash, err := st.Put([]byte("real artifact"))
	if err != nil {
		t.Fatal(err)
	}
	objPath, err := st.Path(hash)
	if err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(filepath.Dir(objPath), ".tmp-5678")
	if err := os.WriteFile(orphan, []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Errorf("orphan %s survived reopen (stat err %v)", orphan, err)
	}
	if got, err := st2.Get(hash); err != nil || string(got) != "real artifact" {
		t.Fatalf("real object lost in sweep: %q, %v", got, err)
	}
}

// TestStoreBytesAccounting: a dedup put adds no bytes, and a reopen
// re-derives the footprint. The ledger itself is TestBlobs/objects/bytes
// in internal/iofault.
func TestStoreBytesAccounting(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	a, b := []byte("first object"), []byte("second, longer object")
	for _, body := range [][]byte{a, b, a} {
		if _, err := st.Put(body); err != nil {
			t.Fatal(err)
		}
	}
	want := int64(len(a) + len(b))
	if st.Bytes() != want {
		t.Fatalf("after 2 puts and a dedup put: %d bytes, want %d", st.Bytes(), want)
	}
	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Bytes() != want {
		t.Fatalf("after reopen: %d bytes, want %d", st2.Bytes(), want)
	}
}

// TestOlderDataDirReopens: a data directory written by the store code
// that predates iofault.Blobs — three artifacts, three cache cells (one
// overwritten), one orphaned temp file in each namespace — reopens with
// the footprints that code reported and serves the same bytes.
func TestOlderDataDirReopens(t *testing.T) {
	dir := t.TempDir()
	err := filepath.WalkDir("testdata/datadir", func(p string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		rel, _ := filepath.Rel("testdata/datadir", p)
		data, err := os.ReadFile(p)
		if err == nil {
			err = os.MkdirAll(filepath.Join(dir, filepath.Dir(rel)), 0o755)
		}
		if err == nil {
			err = os.WriteFile(filepath.Join(dir, rel), data, 0o644)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := resultcache.Open(filepath.Join(dir, "resultcache"))
	if err != nil {
		t.Fatal(err)
	}
	if st.Bytes() != 57 || cache.Bytes() != 88 {
		t.Fatalf("footprints %d/%d, want 57/88 as the older code reported", st.Bytes(), cache.Bytes())
	}
	for i := 1; i <= 3; i++ {
		body := []byte(fmt.Sprintf("fixture artifact %d\n", i))
		if got, err := st.Get(HashBytes(body)); err != nil || !bytes.Equal(got, body) {
			t.Errorf("artifact %d: %q, %v", i, got, err)
		}
	}
	for i, want := range []string{`{"cycles":1}`, `{"cycles":22222}`, `{"cycles":3}`} {
		d := sha256.Sum256([]byte(fmt.Sprintf("fixture key %d", i+1)))
		if got, ok := cache.Get(hex.EncodeToString(d[:])); !ok || string(got) != want {
			t.Errorf("cell %d: %q, hit=%v; want %s", i+1, got, ok, want)
		}
	}
	if hits, misses, _ := cache.Stats(); hits != 3 || misses != 0 {
		t.Errorf("cache stats %d hits / %d misses, want 3/0", hits, misses)
	}
	err = filepath.WalkDir(dir, func(p string, e fs.DirEntry, err error) error {
		if err == nil && strings.HasPrefix(e.Name(), ".tmp-") {
			t.Errorf("orphan %s survived reopen", p)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// walkFiles visits every regular file under dir.
func walkFiles(dir string, visit func(path, name string)) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		p := dir + string(os.PathSeparator) + e.Name()
		if e.IsDir() {
			if err := walkFiles(p, visit); err != nil {
				return err
			}
			continue
		}
		visit(p, e.Name())
	}
	return nil
}
