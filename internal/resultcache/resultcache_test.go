package resultcache

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"asap/internal/iofault"
)

// TestKeyOrderInsensitive: two keys with the same fields added in
// different orders canonicalize — and therefore hash — identically.
func TestKeyOrderInsensitive(t *testing.T) {
	a := NewKey().Field("scheme", "ASAP").Fieldf("pmmult", "%d", 4).Field("bench", "Q")
	b := NewKey().Field("bench", "Q").Field("scheme", "ASAP").Fieldf("pmmult", "%d", 4)
	if a.Canonical() != b.Canonical() {
		t.Fatalf("canonical forms differ:\n%q\n%q", a.Canonical(), b.Canonical())
	}
	if a.Sum() != b.Sum() {
		t.Fatalf("digests differ: %s vs %s", a.Sum(), b.Sum())
	}
}

// TestKeyFieldsChangeDigest: every field that should invalidate the
// cache — seed, code version, any config axis — actually does.
func TestKeyFieldsChangeDigest(t *testing.T) {
	base := func() *Key {
		return NewKey().Field("scheme", "ASAP").Field("seed", "42").Field("codeversion", "abc123")
	}
	ref := base().Sum()
	if got := base().Sum(); got != ref {
		t.Fatalf("same key hashed differently: %s vs %s", got, ref)
	}
	variants := map[string]*Key{
		"seed":        base().Field("seed2", "").Fieldf("x", "%d", 0),
		"seed change": NewKey().Field("scheme", "ASAP").Field("seed", "43").Field("codeversion", "abc123"),
		"code change": NewKey().Field("scheme", "ASAP").Field("seed", "42").Field("codeversion", "def456"),
		"new axis":    base().Field("valuebytes", "64"),
	}
	for name, k := range variants {
		if k.Sum() == ref {
			t.Errorf("%s: expected a different digest", name)
		}
	}
}

// TestKeyEscaping: a value containing newlines or separator-looking text
// cannot collide with a differently-structured key.
func TestKeyEscaping(t *testing.T) {
	a := NewKey().Field("a", "1\nb=2")
	b := NewKey().Field("a", "1").Field("b", "2")
	if a.Sum() == b.Sum() {
		t.Fatal("newline in value collided with a separate field")
	}
}

// TestCodeVersionEnvOverride: the env override wins and enables caching
// even where buildinfo would refuse (go test binaries are unstamped).
func TestCodeVersionEnvOverride(t *testing.T) {
	t.Setenv(CodeVersionEnv, "test-override-1")
	v, ok := CodeVersion()
	if !ok || v != "test-override-1" {
		t.Fatalf("CodeVersion() = %q, %v; want override", v, ok)
	}
}

func TestStoreRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := NewKey().Field("k", "v").Sum()
	if _, ok := s.Get(key); ok {
		t.Fatal("hit on empty store")
	}
	payload := []byte(`{"cycles":12345}`)
	if err := s.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(key)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, %v; want %q", got, ok, payload)
	}
	hits, misses, puts := s.Stats()
	if hits != 1 || misses != 1 || puts != 1 {
		t.Fatalf("stats = %d/%d/%d; want 1/1/1", hits, misses, puts)
	}
}

// TestStoreReopen: entries survive reopening (the CI cache restore path).
func TestStoreReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := NewKey().Field("k", "v").Sum()
	if err := s.Put(key, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := s2.Get(key); !ok || string(got) != "payload" {
		t.Fatalf("reopened Get = %q, %v", got, ok)
	}
}

// TestStoreCorruptionDetected: truncation, payload bit flips, header bit
// flips, and wrong versions are all misses — and the bad entry is
// removed so the recomputed result can land cleanly.
func TestStoreCorruptionDetected(t *testing.T) {
	corruptions := map[string]func([]byte) []byte{
		"truncated":    func(b []byte) []byte { return b[:len(b)-3] },
		"header-only":  func(b []byte) []byte { return b[:8] },
		"payload-flip": func(b []byte) []byte { b[len(b)-1] ^= 0x40; return b },
		"crc-flip":     func(b []byte) []byte { b[9] ^= 0x01; return b },
		"bad-magic":    func(b []byte) []byte { b[0] = 'X'; return b },
		"bad-version":  func(b []byte) []byte { b[4] = 99; return b },
		"empty":        func(b []byte) []byte { return nil },
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			s, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			key := NewKey().Field("case", name).Sum()
			if err := s.Put(key, []byte("the true payload")); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(s.dir, "cells", key[:2], key[2:])
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, corrupt(raw), 0o644); err != nil {
				t.Fatal(err)
			}
			if got, ok := s.Get(key); ok {
				t.Fatalf("corrupt entry trusted: %q", got)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("corrupt entry not removed (stat err %v)", err)
			}
			// The recompute path must be able to repopulate the slot.
			if err := s.Put(key, []byte("recomputed")); err != nil {
				t.Fatal(err)
			}
			if got, ok := s.Get(key); !ok || string(got) != "recomputed" {
				t.Fatalf("repopulated Get = %q, %v", got, ok)
			}
		})
	}
}

// TestOpenSweepsOrphanTmpFiles: the cache's open sweeps temp debris
// under cells/. The sweep itself is TestBlobs/cells/open-sweeps-orphans
// in internal/iofault.
func TestOpenSweepsOrphanTmpFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := NewKey().Field("k", "v").Sum()
	if err := s.Put(key, []byte("keep me")); err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(dir, "cells", key[:2], ".tmp-456")
	if err := os.WriteFile(orphan, []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Errorf("orphan %s survived reopen (stat err %v)", orphan, err)
	}
	if got, ok := s2.Get(key); !ok || string(got) != "keep me" {
		t.Fatalf("real entry lost in sweep: %q, %v", got, ok)
	}
}

// TestStoreRejectsMalformedKeys: a key that is not a hex sha256 cannot
// address the filesystem (no path traversal through key strings).
func TestStoreRejectsMalformedKeys(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"", "abc", "../../../../etc/passwd", string(make([]byte, 64))} {
		if err := s.Put(key, []byte("x")); err == nil {
			t.Errorf("Put(%q) accepted a malformed key", key)
		}
		if _, ok := s.Get(key); ok {
			t.Errorf("Get(%q) hit on a malformed key", key)
		}
	}
}

// TestStoreBytesAndShed: the footprint counts whole framed entries, and
// Shed empties the cache, returning the bytes it freed — the degraded-
// mode contract. The ledger itself is TestBlobs/cells/bytes in
// internal/iofault.
func TestStoreBytesAndShed(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{NewKey().Field("k", "1").Sum(), NewKey().Field("k", "2").Sum()}
	var want int64
	for i, k := range keys {
		payload := bytes.Repeat([]byte{byte('a' + i)}, 100*(i+1))
		if err := s.Put(k, payload); err != nil {
			t.Fatal(err)
		}
		want += int64(iofault.FrameHeaderLen + len(payload))
	}
	if s.Bytes() != want {
		t.Fatalf("after 2 puts: %d bytes, want %d", s.Bytes(), want)
	}
	freed, err := s.Shed()
	if err != nil || freed != want || s.Bytes() != 0 {
		t.Fatalf("Shed = %d, %v with %d bytes left; want %d, nil, 0", freed, err, s.Bytes(), want)
	}
	for _, k := range keys {
		if _, ok := s.Get(k); ok {
			t.Fatalf("key %s survived shed", k)
		}
	}
	// The cache keeps working after a shed.
	if err := s.Put(keys[0], []byte("recomputed")); err != nil {
		t.Fatalf("put after shed: %v", err)
	}
	if got, ok := s.Get(keys[0]); !ok || string(got) != "recomputed" {
		t.Fatalf("get after shed: %q, %v", got, ok)
	}
}

// TestCorruptEntryRemovalAdjustsBytes: a corrupt cell is removed on Get
// and its size leaves the footprint.
func TestCorruptEntryRemovalAdjustsBytes(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := NewKey().Field("k", "v").Sum()
	if err := s.Put(key, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "cells", key[:2], key[2:])
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key); ok {
		t.Fatal("corrupt entry served as a hit")
	}
	if s.Bytes() != 0 {
		t.Fatalf("footprint %d after corrupt-entry removal, want 0", s.Bytes())
	}
}

// goldenEntryHex is the entry for payload {"cycles":12345}, captured
// from the encoder that predates the shared iofault frame. Cached cells
// written by older builds must keep reading back.
const goldenEntryHex = "4153524301000000ae7f8491100000007b226379636c6573223a31323334357d"

func TestEntryGolden(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := NewKey().Field("k", "golden").Sum()
	if err := s.Put(key, []byte(`{"cycles":12345}`)); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(s.dir, "cells", key[:2], key[2:]))
	if err != nil {
		t.Fatal(err)
	}
	if h := hex.EncodeToString(raw); h != goldenEntryHex {
		t.Fatalf("entry bytes moved:\n got %s\nwant %s", h, goldenEntryHex)
	}
}

// TestEntryRejectsDamage runs the snapshot file's damage table against
// the entry format: every strict prefix, and a one-bit flip in each
// header field and in the payload, is a miss.
func TestEntryRejectsDamage(t *testing.T) {
	raw, _ := hex.DecodeString(goldenEntryHex)
	damage := make(map[string][]byte)
	for n := 0; n < len(raw); n++ {
		damage[fmt.Sprintf("prefix-%d", n)] = append([]byte(nil), raw[:n]...)
	}
	for name, off := range map[string]int{
		"magic": 0, "version": 4, "crc": 8, "length": 12, "payload": len(raw) - 1,
	} {
		b := append([]byte(nil), raw...)
		b[off] ^= 0x01
		damage["flip-"+name] = b
	}
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for name, bad := range damage {
		key := NewKey().Field("damage", name).Sum()
		path := filepath.Join(s.dir, "cells", key[:2], key[2:])
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if got, ok := s.Get(key); ok {
			t.Errorf("%s: damaged entry served as a hit: %q", name, got)
		}
	}
}
