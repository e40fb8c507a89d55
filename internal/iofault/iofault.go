// Package iofault is the filesystem seam under every durable path in
// the service layer (queue journal, artifact store, result cache,
// snapshot files). It exists for the same reason internal/faults exists
// under the simulated persist path: the only way to trust recovery code
// is to run it against the failures it claims to survive. FS is a small
// interface covering exactly the operations the durable writers use; OS
// is the passthrough; FaultFS (faultfs.go) is a seeded, deterministic
// adversary injecting ENOSPC, EIO, short writes, torn-at-byte-N syncs,
// failed renames and kill -9 at chosen operations.
//
// The package also owns the POSIX durability idioms the writers share:
// SyncDir (temp+fsync+rename is not durable until the parent directory
// is fsynced — the rename itself lives in directory metadata),
// WriteDurable, the CRC frame of whole-file records (EncodeFrame) and
// Classify (mapping I/O errors onto the stable fault-class taxonomy the
// asapd_io_errors_total metric and the fault campaigns report on).
package iofault

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"syscall"
)

// File is the writable-file surface a durable writer needs: append
// bytes, force them to stable storage, close. *os.File satisfies it.
type File interface {
	io.Writer
	Sync() error
	Close() error
	Name() string
}

// FS abstracts the filesystem operations of the durable paths. Every
// method matches the corresponding os function's contract; the fault
// wrapper only changes *whether* a call succeeds, never what success
// means.
type FS interface {
	// OpenFile opens name with the given flag and permissions.
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// CreateTemp creates a new temporary file in dir (see os.CreateTemp).
	CreateTemp(dir, pattern string) (File, error)
	// ReadFile reads the whole named file.
	ReadFile(name string) ([]byte, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes a file.
	Remove(name string) error
	// MkdirAll creates a directory tree.
	MkdirAll(path string, perm os.FileMode) error
	// Stat stats a path.
	Stat(name string) (os.FileInfo, error)
	// ReadDir lists a directory, sorted by filename.
	ReadDir(name string) ([]os.DirEntry, error)
	// Truncate changes the size of the named file.
	Truncate(name string, size int64) error
	// SyncDir fsyncs a directory, making renames/creates/removes inside
	// it durable. Required after every temp+fsync+rename commit.
	SyncDir(dir string) error
}

// OS is the passthrough FS: the real filesystem, no faults.
type OS struct{}

func (OS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}

func (OS) CreateTemp(dir, pattern string) (File, error) {
	return os.CreateTemp(dir, pattern)
}

func (OS) ReadFile(name string) ([]byte, error)         { return os.ReadFile(name) }
func (OS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (OS) Remove(name string) error                     { return os.Remove(name) }
func (OS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }
func (OS) Stat(name string) (os.FileInfo, error)        { return os.Stat(name) }
func (OS) ReadDir(name string) ([]os.DirEntry, error)   { return os.ReadDir(name) }
func (OS) Truncate(name string, size int64) error       { return os.Truncate(name, size) }

// SyncDir fsyncs dir. Filesystems that cannot fsync directories
// (returning EINVAL or ENOTSUP) are tolerated: on those, the rename
// barrier does not exist to enforce, and failing the commit would turn
// a portability quirk into data loss.
func (OS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if errors.Is(err, syscall.EINVAL) || errors.Is(err, syscall.ENOTSUP) {
		return nil
	}
	return err
}

// Fault classes, the stable taxonomy errors are classified into for
// metrics and campaign reporting.
const (
	ClassENOSPC     = "enospc"
	ClassEIO        = "eio"
	ClassShortWrite = "short_write"
	ClassTornSync   = "torn_sync"
	ClassRenameFail = "rename_fail"
	// ClassKill is a kill -9 at a sync: the syncing file keeps a seeded
	// torn prefix of its unsynced bytes and the whole FaultFS dies. Its
	// errors classify as ClassEIO, the errno a dead medium reports.
	ClassKill     = "kill"
	ClassNotExist = "not_exist"
	ClassOther    = "other"
)

// Classify maps an I/O error onto the fault-class taxonomy. Injected
// faults carry their class explicitly; real OS errors map by errno.
func Classify(err error) string {
	if err == nil {
		return ""
	}
	var inj *InjectedError
	if errors.As(err, &inj) {
		if inj.Class == ClassKill {
			return ClassEIO
		}
		return inj.Class
	}
	switch {
	case errors.Is(err, syscall.ENOSPC):
		return ClassENOSPC
	case errors.Is(err, syscall.EIO):
		return ClassEIO
	case errors.Is(err, io.ErrShortWrite):
		return ClassShortWrite
	case errors.Is(err, fs.ErrNotExist):
		return ClassNotExist
	}
	return ClassOther
}

// SweepTmp removes .tmp-* debris under root — the half-written temp
// files a crash mid-commit strands. They are invisible to every reader
// (never renamed into place) and would otherwise accumulate forever.
// Returns the number of files reaped. A missing root is not an error.
func SweepTmp(fsys FS, root string) (int, error) {
	reaped := 0
	var walk func(dir string) error
	walk = func(dir string) error {
		ents, err := fsys.ReadDir(dir)
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				return nil
			}
			return err
		}
		for _, e := range ents {
			p := filepath.Join(dir, e.Name())
			if e.IsDir() {
				if err := walk(p); err != nil {
					return err
				}
				continue
			}
			if len(e.Name()) >= 5 && e.Name()[:5] == ".tmp-" {
				if err := fsys.Remove(p); err != nil && !errors.Is(err, fs.ErrNotExist) {
					return err
				}
				reaped++
			}
		}
		return nil
	}
	if err := walk(root); err != nil {
		return reaped, err
	}
	return reaped, nil
}

// DirBytes sums the sizes of regular files under root. A missing root
// counts as zero. Used to seed the per-store byte accounting watermark
// checks run against.
func DirBytes(fsys FS, root string) (int64, error) {
	var total int64
	var walk func(dir string) error
	walk = func(dir string) error {
		ents, err := fsys.ReadDir(dir)
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				return nil
			}
			return err
		}
		for _, e := range ents {
			p := filepath.Join(dir, e.Name())
			if e.IsDir() {
				if err := walk(p); err != nil {
					return err
				}
				continue
			}
			if info, err := e.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil
	}
	if err := walk(root); err != nil {
		return total, err
	}
	return total, nil
}

// WriteDurable writes data to path via the full commit discipline:
// temp file in path's directory, write, fsync, close, rename over
// path, fsync the directory. On any error the temp file is removed and
// the previous content of path (if any) is untouched — the caller sees
// either the old version or the new one, never a mix.
func WriteDurable(fsys FS, dir, path string, data []byte) error {
	tmp, err := fsys.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	defer fsys.Remove(name)
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := fsys.Rename(name, path); err != nil {
		return err
	}
	return fsys.SyncDir(dir)
}

// FrameHeaderLen is the size of the header EncodeFrame puts in front of
// a payload. The frame, shared by result-cache entries and snapshot
// files, is written whole and read whole:
//
//	[0:4]   magic
//	[4:8]   format version (LE)
//	[8:12]  CRC-32 (IEEE) of the payload (LE)
//	[12:16] payload length (LE)
//	[16:]   payload
//
// The queue journal keeps its own record frame: it is a stream that
// replay must resynchronise on after a torn append.
const FrameHeaderLen = 16

// ErrBadFrame marks a frame that failed its magic, version, length or
// CRC check.
var ErrBadFrame = errors.New("bad frame")

// EncodeFrame prefixes payload with the frame header.
func EncodeFrame(magic string, version uint32, payload []byte) []byte {
	buf := make([]byte, FrameHeaderLen+len(payload))
	copy(buf[0:4], magic)
	binary.LittleEndian.PutUint32(buf[4:8], version)
	binary.LittleEndian.PutUint32(buf[8:12], crc32.ChecksumIEEE(payload))
	binary.LittleEndian.PutUint32(buf[12:16], uint32(len(payload)))
	copy(buf[FrameHeaderLen:], payload)
	return buf
}

// DecodeFrame validates raw as a frame with the given magic and version
// and returns its payload. Validation is fail-closed: any damage is an
// error wrapping ErrBadFrame, never a partial payload.
func DecodeFrame(magic string, version uint32, raw []byte) ([]byte, error) {
	if len(raw) < FrameHeaderLen || string(raw[0:4]) != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadFrame)
	}
	if v := binary.LittleEndian.Uint32(raw[4:8]); v != version {
		return nil, fmt.Errorf("%w: format version %d (want %d)", ErrBadFrame, v, version)
	}
	payload := raw[FrameHeaderLen:]
	if n := binary.LittleEndian.Uint32(raw[12:16]); uint32(len(payload)) != n {
		return nil, fmt.Errorf("%w: truncated (%d of %d payload bytes)", ErrBadFrame, len(payload), n)
	}
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(raw[8:12]) {
		return nil, fmt.Errorf("%w: CRC mismatch", ErrBadFrame)
	}
	return payload, nil
}
