package iofault

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"
	"sync"
	"syscall"
)

// Op names a fault site: one kind of filesystem operation.
type Op string

const (
	OpOpen       Op = "open"
	OpCreateTemp Op = "createtemp"
	OpRead       Op = "read"
	OpWrite      Op = "write"
	OpSync       Op = "sync"
	OpClose      Op = "close"
	OpRename     Op = "rename"
	OpRemove     Op = "remove"
	OpMkdir      Op = "mkdir"
	OpTruncate   Op = "truncate"
	OpSyncDir    Op = "syncdir"
)

// InjectedError is the error a fired fault returns. It unwraps to the
// matching real sentinel (syscall.ENOSPC, syscall.EIO, io.ErrShortWrite)
// so callers written against errno semantics behave identically under
// injection, while the campaign can still recognize its own faults.
type InjectedError struct {
	Op    Op
	Path  string
	Class string
}

func (e *InjectedError) Error() string {
	return fmt.Sprintf("iofault: injected %s on %s %s", e.Class, e.Op, e.Path)
}

func (e *InjectedError) Unwrap() error {
	switch e.Class {
	case ClassENOSPC:
		return syscall.ENOSPC
	case ClassShortWrite:
		return io.ErrShortWrite
	default:
		// EIO stands in for torn syncs, kills and failed renames too:
		// that is what the kernel reports when a sync or metadata
		// update dies.
		return syscall.EIO
	}
}

// Trip is a one-shot trigger: fire Class at the Nth matching operation
// from arming (N >= 1), optionally only on paths containing Substr. A
// ClassKill trip is meant for OpSync: it tears the syncing file like
// ClassTornSync and then kills the whole FaultFS.
type Trip struct {
	Op     Op
	Class  string
	N      int
	Substr string

	fired bool
}

// Injected records one fired fault, for campaign audits.
type Injected struct {
	Op    Op
	Path  string
	Class string
	Seq   int // global operation sequence number at firing
}

// FaultFS wraps an inner FS with deterministic, seeded fault injection.
// Faults fire from two sources: one-shot trips (exact operation counts,
// the campaign's precision tool) and per-op probabilities (background
// hostility). All decisions come from one seeded RNG under one mutex,
// so a given (seed, operation sequence) always fails identically.
//
// Once a ClassKill trip fires the FaultFS is killed: every later
// mutating operation on every path fails with EIO, including on files
// opened before the kill, which is what a kill -9ed process would see
// if it could still run. Reads still pass; they change nothing durable.
type FaultFS struct {
	inner FS

	mu      sync.Mutex
	killed  bool
	rng     *rand.Rand
	prob    map[Op]float64
	classes []string
	trips   []*Trip
	seq     int
	log     []Injected
}

// NewFaultFS wraps inner with a seeded injector. With no trips armed
// and no probabilities set it is a passthrough.
func NewFaultFS(inner FS, seed int64) *FaultFS {
	return &FaultFS{
		inner: inner,
		rng:   rand.New(rand.NewSource(seed)),
		prob:  make(map[Op]float64),
	}
}

// SetProb sets the per-operation fault probability for op. Classes are
// drawn uniformly from SetClasses (default: ENOSPC, EIO, short write,
// torn sync, rename fail — the last only meaningful on rename ops).
func (f *FaultFS) SetProb(op Op, p float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.prob[op] = p
}

// SetClasses fixes the class pool probability-mode faults draw from.
func (f *FaultFS) SetClasses(classes ...string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.classes = classes
}

// Arm adds a one-shot trip.
func (f *FaultFS) Arm(t Trip) {
	f.mu.Lock()
	defer f.mu.Unlock()
	tt := t
	f.trips = append(f.trips, &tt)
}

// Disarm clears all trips and probabilities.
func (f *FaultFS) Disarm() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.trips = nil
	f.prob = make(map[Op]float64)
}

// Log returns every fault fired so far.
func (f *FaultFS) Log() []Injected {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]Injected(nil), f.log...)
}

// Killed reports whether a ClassKill trip has fired.
func (f *FaultFS) Killed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.killed
}

// decide consults trips then probabilities for one operation. The
// returned frac (0..1) seeds partial effects (how many bytes of a torn
// write/sync survive); it is drawn even when unused to keep the RNG
// stream aligned with the operation sequence.
func (f *FaultFS) decide(op Op, path string) (*InjectedError, float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.killed && op != OpRead {
		// frac 0: a write from a dead process leaves no prefix behind.
		return &InjectedError{Op: op, Path: path, Class: ClassEIO}, 0
	}
	f.seq++
	frac := f.rng.Float64()
	for _, t := range f.trips {
		if t.fired || t.Op != op {
			continue
		}
		if t.Substr != "" && !strings.Contains(path, t.Substr) {
			continue
		}
		t.N--
		if t.N > 0 {
			continue
		}
		t.fired = true
		if t.Class == ClassKill {
			f.killed = true
		}
		err := &InjectedError{Op: op, Path: path, Class: t.Class}
		f.log = append(f.log, Injected{Op: op, Path: path, Class: t.Class, Seq: f.seq})
		return err, frac
	}
	if p := f.prob[op]; p > 0 && f.rng.Float64() < p {
		class := ClassEIO
		if len(f.classes) > 0 {
			class = f.classes[f.rng.Intn(len(f.classes))]
		}
		err := &InjectedError{Op: op, Path: path, Class: class}
		f.log = append(f.log, Injected{Op: op, Path: path, Class: class, Seq: f.seq})
		return err, frac
	}
	return nil, frac
}

// faultFile wraps an open file. It tracks the durable boundary (size as
// of the last successful sync) so a torn-sync fault can truncate the
// real file to a seeded point inside the unsynced suffix — emulating a
// crash where only part of the in-flight data reached the medium. After
// a torn sync the file is dead: every later operation fails, the way a
// file on a failed device behaves.
type faultFile struct {
	fs     *FaultFS
	f      File
	path   string
	size   int64 // bytes written so far (durable + pending)
	synced int64 // durable boundary: size at last successful sync
	dead   bool
}

func (ff *faultFile) Name() string { return ff.path }

func (ff *faultFile) Write(p []byte) (int, error) {
	if ff.dead {
		return 0, &InjectedError{Op: OpWrite, Path: ff.path, Class: ClassEIO}
	}
	inj, frac := ff.fs.decide(OpWrite, ff.path)
	if inj == nil {
		n, err := ff.f.Write(p)
		ff.size += int64(n)
		return n, err
	}
	switch inj.Class {
	case ClassENOSPC, ClassEIO, ClassShortWrite:
		// The adversarial general case: a seeded prefix reaches the file
		// before the error — POSIX write makes no atomicity promise.
		n := int(frac * float64(len(p)))
		if n > 0 {
			m, _ := ff.f.Write(p[:n])
			ff.size += int64(m)
			n = m
		}
		return n, inj
	default:
		return 0, inj
	}
}

func (ff *faultFile) Sync() error {
	if ff.dead {
		return &InjectedError{Op: OpSync, Path: ff.path, Class: ClassEIO}
	}
	inj, frac := ff.fs.decide(OpSync, ff.path)
	if inj == nil {
		if err := ff.f.Sync(); err != nil {
			return err
		}
		ff.synced = ff.size
		return nil
	}
	if inj.Class == ClassTornSync || inj.Class == ClassKill {
		// Only a seeded fraction of the unsynced suffix survives; the
		// rest is physically removed, as if the power died mid-flush.
		keep := ff.synced + int64(frac*float64(ff.size-ff.synced))
		ff.f.Sync() // flush so truncate sees all bytes
		ff.fs.inner.Truncate(ff.path, keep)
		ff.size, ff.synced = keep, keep
		ff.dead = true
	}
	return inj
}

func (ff *faultFile) Close() error {
	if ff.dead || ff.fs.Killed() {
		// The descriptor is released either way, as the kernel releases
		// a dead process's files; nothing more reaches the medium.
		ff.f.Close()
		return &InjectedError{Op: OpClose, Path: ff.path, Class: ClassEIO}
	}
	return ff.f.Close()
}

// --- FS interface ---

func (f *FaultFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	if inj, _ := f.decide(OpOpen, name); inj != nil {
		return nil, inj
	}
	file, err := f.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	var size int64
	if st, err := f.inner.Stat(name); err == nil && flag&os.O_TRUNC == 0 {
		size = st.Size()
	}
	return &faultFile{fs: f, f: file, path: name, size: size, synced: size}, nil
}

func (f *FaultFS) CreateTemp(dir, pattern string) (File, error) {
	if inj, _ := f.decide(OpCreateTemp, dir); inj != nil {
		return nil, inj
	}
	file, err := f.inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, f: file, path: file.Name()}, nil
}

func (f *FaultFS) ReadFile(name string) ([]byte, error) {
	if inj, _ := f.decide(OpRead, name); inj != nil {
		return nil, inj
	}
	return f.inner.ReadFile(name)
}

func (f *FaultFS) Rename(oldpath, newpath string) error {
	if inj, _ := f.decide(OpRename, newpath); inj != nil {
		return inj
	}
	return f.inner.Rename(oldpath, newpath)
}

func (f *FaultFS) Remove(name string) error {
	if inj, _ := f.decide(OpRemove, name); inj != nil {
		return inj
	}
	return f.inner.Remove(name)
}

func (f *FaultFS) MkdirAll(path string, perm os.FileMode) error {
	if inj, _ := f.decide(OpMkdir, path); inj != nil {
		return inj
	}
	return f.inner.MkdirAll(path, perm)
}

func (f *FaultFS) Stat(name string) (os.FileInfo, error) {
	return f.inner.Stat(name)
}

func (f *FaultFS) ReadDir(name string) ([]os.DirEntry, error) {
	return f.inner.ReadDir(name)
}

func (f *FaultFS) Truncate(name string, size int64) error {
	if inj, _ := f.decide(OpTruncate, name); inj != nil {
		return inj
	}
	return f.inner.Truncate(name, size)
}

func (f *FaultFS) SyncDir(dir string) error {
	if inj, _ := f.decide(OpSyncDir, dir); inj != nil {
		return inj
	}
	return f.inner.SyncDir(dir)
}
