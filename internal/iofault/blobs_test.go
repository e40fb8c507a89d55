package iofault

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func blobName(s string) string {
	d := sha256.Sum256([]byte(s))
	return hex.EncodeToString(d[:])
}

// TestBlobs runs the shared store's contract over both namespaces asapd
// keeps in it: raw artifacts under objects/ and framed result-cache
// entries under cells/.
func TestBlobs(t *testing.T) {
	for _, ns := range []struct {
		name   string
		encode func([]byte) []byte
	}{
		{"objects", func(b []byte) []byte { return b }},
		{"cells", func(b []byte) []byte { return EncodeFrame("ASRC", 1, b) }},
	} {
		open := func(t *testing.T, root string) *Blobs {
			t.Helper()
			b, err := OpenBlobs(OS{}, root)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		put := func(t *testing.T, b *Blobs, name, payload string) int64 {
			t.Helper()
			data := ns.encode([]byte(payload))
			if err := b.Put(name, data); err != nil {
				t.Fatal(err)
			}
			return int64(len(data))
		}

		// No name that is not 64 hex digits reaches the filesystem.
		t.Run(ns.name+"/malformed", func(t *testing.T) {
			b := open(t, filepath.Join(t.TempDir(), ns.name))
			for _, name := range []string{
				"", "abc", "../../../../etc/passwd", string(make([]byte, 64)),
				"../" + blobName("x")[3:], strings.Repeat("z", 64),
			} {
				if _, err := b.Path(name); !errors.Is(err, ErrBadName) {
					t.Errorf("Path(%q): %v, want ErrBadName", name, err)
				}
				if _, err := b.Get(name); !errors.Is(err, ErrBadName) {
					t.Errorf("Get(%q): %v, want ErrBadName", name, err)
				}
				if err := b.Put(name, []byte("x")); !errors.Is(err, ErrBadName) {
					t.Errorf("Put(%q): %v, want ErrBadName", name, err)
				}
				if err := b.Remove(name); !errors.Is(err, ErrBadName) {
					t.Errorf("Remove(%q): %v, want ErrBadName", name, err)
				}
				if b.Has(name) {
					t.Errorf("Has(%q) = true", name)
				}
			}
		})

		// Temp files stranded by a kill -9 between CreateTemp and Rename
		// are removed by the next open, at any depth; real files survive
		// and only they are counted.
		t.Run(ns.name+"/open-sweeps-orphans", func(t *testing.T) {
			root := filepath.Join(t.TempDir(), ns.name)
			b := open(t, root)
			name := blobName("keep")
			want := put(t, b, name, "keep me")
			path, _ := b.Path(name)
			orphans := []string{
				filepath.Join(root, ".tmp-123"),
				filepath.Join(filepath.Dir(path), ".tmp-456"),
			}
			for _, p := range orphans {
				if err := os.WriteFile(p, []byte("half-written"), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			b2 := open(t, root)
			for _, p := range orphans {
				if _, err := os.Stat(p); !os.IsNotExist(err) {
					t.Errorf("orphan %s survived reopen (stat err %v)", p, err)
				}
			}
			if got, err := b2.Get(name); err != nil || !bytes.Equal(got, ns.encode([]byte("keep me"))) {
				t.Fatalf("real file lost in sweep: %q, %v", got, err)
			}
			if b2.Bytes() != want {
				t.Fatalf("reopened footprint %d, want %d", b2.Bytes(), want)
			}
		})

		// The byte ledger follows puts, overwrites (by the size delta),
		// removal of a corrupt entry and Clear, and a reopen re-derives
		// it from disk.
		t.Run(ns.name+"/bytes", func(t *testing.T) {
			root := filepath.Join(t.TempDir(), ns.name)
			b := open(t, root)
			if b.Bytes() != 0 {
				t.Fatalf("fresh store reports %d bytes", b.Bytes())
			}
			names := []string{blobName("1"), blobName("2"), blobName("3")}
			sizes := map[string]int64{}
			for i, n := range names {
				sizes[n] = put(t, b, n, strings.Repeat(string(rune('a'+i)), 100*(i+1)))
			}
			total := func() (s int64) {
				for _, v := range sizes {
					s += v
				}
				return s
			}
			if b.Bytes() != total() {
				t.Fatalf("after 3 puts: %d bytes, want %d", b.Bytes(), total())
			}
			sizes[names[0]] = put(t, b, names[0], "tiny")
			if b.Bytes() != total() {
				t.Fatalf("after overwrite: %d bytes, want %d", b.Bytes(), total())
			}
			// A reader that finds names[1] corrupt removes it.
			if err := b.Remove(names[1]); err != nil {
				t.Fatal(err)
			}
			delete(sizes, names[1])
			if b.Bytes() != total() || b.Has(names[1]) {
				t.Fatalf("after remove: %d bytes (want %d), has=%v", b.Bytes(), total(), b.Has(names[1]))
			}
			if err := b.Remove(names[1]); !errors.Is(err, os.ErrNotExist) || b.Bytes() != total() {
				t.Fatalf("second remove: %v, %d bytes (want not-exist, %d)", err, b.Bytes(), total())
			}
			b2 := open(t, root)
			if b2.Bytes() != total() {
				t.Fatalf("after reopen: %d bytes, want %d", b2.Bytes(), total())
			}
			// Clear frees every committed file and leaves a Put in
			// flight (its temp file) alone.
			inflight := filepath.Join(root, names[0][:2], ".tmp-inflight")
			if err := os.WriteFile(inflight, []byte("in flight"), 0o644); err != nil {
				t.Fatal(err)
			}
			freed, err := b2.Clear()
			if err != nil || freed != total() {
				t.Fatalf("Clear = %d, %v; want %d", freed, err, total())
			}
			if b2.Bytes() != 0 {
				t.Fatalf("%d bytes after Clear", b2.Bytes())
			}
			for _, n := range names {
				if b2.Has(n) {
					t.Fatalf("%s survived Clear", n)
				}
			}
			if _, err := os.Stat(inflight); err != nil {
				t.Fatalf("Clear removed an in-flight temp file: %v", err)
			}
			n := put(t, b2, names[2], "recomputed")
			if b2.Bytes() != n {
				t.Fatalf("put after Clear: %d bytes, want %d", b2.Bytes(), n)
			}
			if got, err := b2.Get(names[2]); err != nil || !bytes.Equal(got, ns.encode([]byte("recomputed"))) {
				t.Fatalf("Get after Clear and put: %q, %v", got, err)
			}
		})

		// Writers racing on one name (puts of different sizes, removes
		// and Clears) move the ledger once per file: it ends equal to
		// what a reopen finds on disk.
		t.Run(ns.name+"/racing-writers", func(t *testing.T) {
			root := filepath.Join(t.TempDir(), ns.name)
			b := open(t, root)
			name := blobName("contended")
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < 25; i++ {
						switch {
						case w == 3 && i%5 == 4:
							b.Clear()
						case w == 2 && i%3 == 2:
							b.Remove(name)
						default:
							data := ns.encode(bytes.Repeat([]byte{'a'}, 100*(w+1)+i))
							if err := b.Put(name, data); err != nil {
								t.Error(err)
							}
						}
					}
				}(w)
			}
			wg.Wait()
			if got, want := b.Bytes(), open(t, root).Bytes(); got != want {
				t.Fatalf("ledger reads %d bytes after racing writers; disk holds %d", got, want)
			}
		})

		// Every I/O failure reaches the hook classified; a miss does not.
		t.Run(ns.name+"/error-hook", func(t *testing.T) {
			ffs := NewFaultFS(OS{}, 1)
			b, err := OpenBlobs(ffs, filepath.Join(t.TempDir(), ns.name))
			if err != nil {
				t.Fatal(err)
			}
			var classes []string
			b.SetErrorHook(func(err error) { classes = append(classes, Classify(err)) })
			if _, err := b.Get(blobName("absent")); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("Get of an absent name: %v", err)
			}
			ffs.Arm(Trip{Op: OpRename, N: 1, Class: ClassRenameFail})
			if err := b.Put(blobName("x"), ns.encode([]byte("x"))); err == nil {
				t.Fatal("Put succeeded through a failed rename")
			}
			if len(classes) != 1 || classes[0] != ClassRenameFail || b.Bytes() != 0 {
				t.Fatalf("hook saw %v, footprint %d; want [%s], 0", classes, b.Bytes(), ClassRenameFail)
			}
		})
	}
}
