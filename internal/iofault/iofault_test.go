package iofault

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

func TestOSPassthroughDurableWrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "obj")
	if err := WriteDurable(OS{}, dir, path, []byte("hello")); err != nil {
		t.Fatalf("WriteDurable: %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "hello" {
		t.Fatalf("read back: %q, %v", got, err)
	}
	// Overwrite is atomic: either version, never a mix (here: success).
	if err := WriteDurable(OS{}, dir, path, []byte("world")); err != nil {
		t.Fatalf("overwrite: %v", err)
	}
	got, _ = os.ReadFile(path)
	if string(got) != "world" {
		t.Fatalf("after overwrite: %q", got)
	}
	// No temp debris left behind.
	ents, _ := os.ReadDir(dir)
	if len(ents) != 1 {
		t.Fatalf("dir has %d entries after commits, want 1", len(ents))
	}
}

func TestTripFiresAtExactCount(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(OS{}, 1)
	ffs.Arm(Trip{Op: OpWrite, Class: ClassENOSPC, N: 3})

	f, err := ffs.OpenFile(filepath.Join(dir, "f"), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		if _, err := f.Write([]byte("abcd")); err != nil {
			t.Fatalf("write %d should pass: %v", i, err)
		}
	}
	_, err = f.Write([]byte("abcd"))
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("3rd write: got %v, want ENOSPC", err)
	}
	var inj *InjectedError
	if !errors.As(err, &inj) || inj.Class != ClassENOSPC {
		t.Fatalf("error not an InjectedError with class: %v", err)
	}
	if Classify(err) != ClassENOSPC {
		t.Fatalf("Classify = %q", Classify(err))
	}
	// One-shot: the 4th write passes again.
	if _, err := f.Write([]byte("abcd")); err != nil {
		t.Fatalf("4th write after one-shot: %v", err)
	}
	if n := len(ffs.Log()); n != 1 {
		t.Fatalf("fault log has %d entries, want 1", n)
	}
}

func TestShortWriteLeavesPrefix(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	ffs := NewFaultFS(OS{}, 7)
	ffs.Arm(Trip{Op: OpWrite, Class: ClassShortWrite, N: 1})
	f, err := ffs.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 1000)
	n, err := f.Write(payload)
	if !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("short write error: %v", err)
	}
	if n < 0 || n >= len(payload) {
		t.Fatalf("short write wrote %d of %d", n, len(payload))
	}
	f.Close()
	st, _ := os.Stat(path)
	if st.Size() != int64(n) {
		t.Fatalf("file holds %d bytes, write reported %d", st.Size(), n)
	}
}

func TestTornSyncTruncatesUnsyncedSuffix(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	ffs := NewFaultFS(OS{}, 42)
	f, err := ffs.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// First batch becomes durable.
	if _, err := f.Write(make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	// Second batch is torn mid-sync.
	ffs.Arm(Trip{Op: OpSync, Class: ClassTornSync, N: 1})
	if _, err := f.Write(make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	err = f.Sync()
	if !errors.Is(err, syscall.EIO) || Classify(err) != ClassTornSync {
		t.Fatalf("torn sync: %v (class %s)", err, Classify(err))
	}
	st, _ := os.Stat(path)
	if st.Size() < 100 || st.Size() >= 200 {
		t.Fatalf("torn file is %d bytes; want [100,200): synced prefix kept, suffix torn", st.Size())
	}
	// The file is dead from here on.
	if _, err := f.Write([]byte("x")); err == nil {
		t.Fatal("write to torn file succeeded")
	}
	if err := f.Sync(); err == nil {
		t.Fatal("sync of torn file succeeded")
	}
}

func TestRenameAndDirSyncFaults(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "src")
	dst := filepath.Join(dir, "dst")
	os.WriteFile(src, []byte("x"), 0o644)

	ffs := NewFaultFS(OS{}, 3)
	ffs.Arm(Trip{Op: OpRename, Class: ClassRenameFail, N: 1})
	if err := ffs.Rename(src, dst); Classify(err) != ClassRenameFail {
		t.Fatalf("rename fault: %v", err)
	}
	if _, err := os.Stat(dst); err == nil {
		t.Fatal("dst exists after failed rename")
	}
	if err := ffs.Rename(src, dst); err != nil {
		t.Fatalf("rename after one-shot: %v", err)
	}
	ffs.Arm(Trip{Op: OpSyncDir, Class: ClassEIO, N: 1})
	if err := ffs.SyncDir(dir); !errors.Is(err, syscall.EIO) {
		t.Fatalf("syncdir fault: %v", err)
	}
	if err := ffs.SyncDir(dir); err != nil {
		t.Fatalf("syncdir after one-shot: %v", err)
	}
}

func TestTripSubstrTargeting(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(OS{}, 5)
	ffs.Arm(Trip{Op: OpOpen, Class: ClassEIO, N: 1, Substr: "journal"})
	if _, err := ffs.OpenFile(filepath.Join(dir, "other"), os.O_CREATE|os.O_WRONLY, 0o644); err != nil {
		t.Fatalf("non-matching path faulted: %v", err)
	}
	if _, err := ffs.OpenFile(filepath.Join(dir, "journal-1"), os.O_CREATE|os.O_WRONLY, 0o644); err == nil {
		t.Fatal("matching path did not fault")
	}
}

func TestDeterministicSequence(t *testing.T) {
	run := func() []Injected {
		dir := t.TempDir()
		ffs := NewFaultFS(OS{}, 99)
		ffs.SetProb(OpWrite, 0.3)
		ffs.SetClasses(ClassENOSPC, ClassEIO, ClassShortWrite)
		f, _ := ffs.OpenFile(filepath.Join(dir, "f"), os.O_CREATE|os.O_WRONLY, 0o644)
		for i := 0; i < 50; i++ {
			f.Write([]byte("0123456789"))
		}
		log := ffs.Log()
		// Strip paths (temp dirs differ) for comparison.
		for i := range log {
			log[i].Path = ""
		}
		return log
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("probability mode injected nothing in 50 ops at p=0.3")
	}
	if len(a) != len(b) {
		t.Fatalf("runs injected %d vs %d faults", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fault %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// killAfterSync opens two files, writes 100 synced and 100 unsynced
// bytes to the first, and fires a kill trip at its second sync. It
// returns the FaultFS, both still-open files, the size the first file
// has on disk and the error of the firing sync.
func killAfterSync(t *testing.T, dir string, seed int64) (*FaultFS, File, File, int64, error) {
	t.Helper()
	path := filepath.Join(dir, "f")
	ffs := NewFaultFS(OS{}, seed)
	ffs.Arm(Trip{Op: OpSync, Class: ClassKill, N: 2})
	f, err := ffs.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	g, err := ffs.OpenFile(filepath.Join(dir, "g"), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := f.Write(make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
		if err = f.Sync(); i == 0 && err != nil {
			t.Fatal(err)
		}
	}
	st, serr := os.Stat(path)
	if serr != nil {
		t.Fatal(serr)
	}
	return ffs, f, g, st.Size(), err
}

func TestKillTearsFileAndKillsFS(t *testing.T) {
	dir := t.TempDir()
	ffs, f, g, size, err := killAfterSync(t, dir, 42)
	if err == nil || !ffs.Killed() {
		t.Fatalf("kill trip did not fire: err %v, killed %v", err, ffs.Killed())
	}
	if !errors.Is(err, syscall.EIO) || Classify(err) != ClassEIO {
		t.Fatalf("kill error %v classifies as %q, want eio", err, Classify(err))
	}
	if size < 100 || size >= 200 {
		t.Fatalf("killed file is %d bytes; want [100,200): synced prefix plus a torn prefix", size)
	}
	// The torn length is a function of the seed alone.
	_, f2, g2, size2, _ := killAfterSync(t, t.TempDir(), 42)
	f2.Close()
	g2.Close()
	if size2 != size {
		t.Fatalf("same seed tore %d then %d bytes", size, size2)
	}
	if log := ffs.Log(); len(log) != 1 || log[0].Class != ClassKill {
		t.Fatalf("fault log %+v, want one kill", log)
	}

	// Every mutating operation now fails on every path, including on a
	// file opened before the kill, and classifies as eio.
	victim := filepath.Join(dir, "victim")
	os.WriteFile(victim, []byte("x"), 0o644)
	fail := map[string]error{}
	_, fail["write"] = f.Write([]byte("x"))
	fail["sync"] = f.Sync()
	_, fail["write-other"] = g.Write([]byte("x"))
	fail["sync-other"] = g.Sync()
	_, fail["create"] = ffs.OpenFile(filepath.Join(dir, "new"), os.O_CREATE|os.O_WRONLY, 0o644)
	_, fail["createtemp"] = ffs.CreateTemp(dir, ".tmp-*")
	fail["rename"] = ffs.Rename(victim, filepath.Join(dir, "moved"))
	fail["remove"] = ffs.Remove(victim)
	fail["truncate"] = ffs.Truncate(filepath.Join(dir, "f"), 0)
	fail["syncdir"] = ffs.SyncDir(dir)
	fail["close"] = f.Close()
	fail["close-other"] = g.Close()
	for op, err := range fail {
		if err == nil {
			t.Errorf("%s succeeded after the kill", op)
		} else if Classify(err) != ClassEIO {
			t.Errorf("%s after the kill classifies as %q, want eio", op, Classify(err))
		}
	}
	if _, err := os.Stat(victim); err != nil {
		t.Fatalf("victim file touched after the kill: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "new")); err == nil {
		t.Fatal("create succeeded on disk after the kill")
	}
	if st, _ := os.Stat(filepath.Join(dir, "f")); st.Size() != size {
		t.Fatalf("killed file changed size after the kill: %d -> %d", size, st.Size())
	}
	if st, _ := os.Stat(filepath.Join(dir, "g")); st.Size() != 0 {
		t.Fatalf("file opened before the kill grew to %d bytes", st.Size())
	}
	// Reads still pass: they change nothing durable.
	if _, err := ffs.ReadFile(victim); err != nil {
		t.Fatalf("read after the kill: %v", err)
	}
}
