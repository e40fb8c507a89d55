package resultcache

import (
	"encoding/hex"
	"errors"
	"io/fs"
	"path/filepath"
	"sync/atomic"

	"asap/internal/iofault"
)

// Entry format: the payload in an iofault frame (magic "ASRC", version,
// CRC-32, length), so a truncated or bit-flipped entry is detected and
// recomputed, never trusted.
const (
	entryMagic   = "ASRC"
	entryVersion = 1
)

// Store is the on-disk cell cache: entries live at cells/<aa>/<rest of
// key digest>, written via temp file + fsync + rename + directory fsync
// so a crash can never leave a half-written entry under its final name.
// Opening the store sweeps temp files orphaned by a kill -9 mid-Put.
// Hit/miss/put counters are atomic, so one Store may serve a whole
// worker pool.
//
// The cache is the shedable store: it holds only recomputable results,
// so the disk-budget degraded mode empties it first when a watermark is
// breached (Shed).
type Store struct {
	dir  string
	fsys iofault.FS

	hits   atomic.Int64
	misses atomic.Int64
	puts   atomic.Int64

	// bytes tracks the cells' on-disk footprint, seeded by a walk at
	// open, advanced by Puts, reduced by corrupt-entry removal and Shed.
	bytes atomic.Int64

	// onErr, when set, observes every I/O failure (the daemon maps it to
	// asapd_io_errors_total{path="resultcache"}). Atomic-free: set once
	// at open, before the store is shared.
	onErr func(error)
}

// Open creates (if needed) and opens the cache rooted at dir on the
// real filesystem, removing any orphaned .tmp-* files a crashed writer
// left behind.
func Open(dir string) (*Store, error) {
	return OpenFS(iofault.OS{}, dir)
}

// OpenFS opens the cache through an explicit filesystem — the seam the
// hostile-I/O campaign injects faults through.
func OpenFS(fsys iofault.FS, dir string) (*Store, error) {
	cells := filepath.Join(dir, "cells")
	if err := fsys.MkdirAll(cells, 0o755); err != nil {
		return nil, err
	}
	if _, err := iofault.SweepTmp(fsys, cells); err != nil {
		return nil, err
	}
	s := &Store{dir: dir, fsys: fsys}
	n, err := iofault.DirBytes(fsys, cells)
	if err != nil {
		return nil, err
	}
	s.bytes.Store(n)
	return s, nil
}

// SetErrorHook registers an observer for I/O failures. Call before the
// store is shared.
func (s *Store) SetErrorHook(fn func(error)) { s.onErr = fn }

func (s *Store) ioErr(err error) {
	if s.onErr != nil {
		s.onErr(err)
	}
}

// Dir returns the cache root.
func (s *Store) Dir() string { return s.dir }

// Bytes returns the cache's current on-disk footprint (cells only).
func (s *Store) Bytes() int64 { return s.bytes.Load() }

// entryPath maps a key digest to its on-disk path, rejecting anything
// that is not a hex sha256 so keys cannot escape the cache directory.
func (s *Store) entryPath(key string) (string, error) {
	if len(key) != 64 {
		return "", errors.New("resultcache: malformed key " + key)
	}
	if _, err := hex.DecodeString(key); err != nil {
		return "", errors.New("resultcache: malformed key " + key)
	}
	return filepath.Join(s.dir, "cells", key[:2], key[2:]), nil
}

// Get returns the payload cached under key, or (nil, false) on a miss.
// A corrupt or truncated entry (bad magic, version, length, or CRC) is
// removed and reported as a miss: the cell is recomputed, never trusted.
func (s *Store) Get(key string) ([]byte, bool) {
	path, err := s.entryPath(key)
	if err != nil {
		s.misses.Add(1)
		return nil, false
	}
	raw, err := s.fsys.ReadFile(path)
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			s.ioErr(err)
		}
		s.misses.Add(1)
		return nil, false
	}
	payload, err := iofault.DecodeFrame(entryMagic, entryVersion, raw)
	if err != nil {
		if rerr := s.fsys.Remove(path); rerr == nil {
			s.bytes.Add(-int64(len(raw)))
		}
		s.misses.Add(1)
		return nil, false
	}
	s.hits.Add(1)
	return payload, true
}

// Put stores payload under key. The write is durable — fsynced, renamed,
// parent directory fsynced — when Put returns; concurrent Puts of the
// same key are safe (last rename wins, both contents identical by keying
// discipline). On failure the entry is absent or holds its previous
// value, never a mix.
func (s *Store) Put(key string, payload []byte) error {
	path, err := s.entryPath(key)
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	if err := s.fsys.MkdirAll(dir, 0o755); err != nil {
		s.ioErr(err)
		return err
	}
	entry := iofault.EncodeFrame(entryMagic, entryVersion, payload)
	var prev int64
	if st, err := s.fsys.Stat(path); err == nil {
		prev = st.Size()
	}
	if err := iofault.WriteDurable(s.fsys, dir, path, entry); err != nil {
		s.ioErr(err)
		return err
	}
	s.bytes.Add(int64(len(entry)) - prev)
	s.puts.Add(1)
	return nil
}

// Shed empties the cache — the degraded-mode response to a disk-budget
// breach: every cell is recomputable, so dropping them trades CPU for
// disk without losing anything durable. Returns the bytes freed. Errors
// on individual removals are reported through the hook but do not stop
// the shed; the cache keeps operating either way.
func (s *Store) Shed() (int64, error) {
	cells := filepath.Join(s.dir, "cells")
	var freed int64
	var firstErr error
	ents, err := s.fsys.ReadDir(cells)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return 0, nil
		}
		s.ioErr(err)
		return 0, err
	}
	for _, bucket := range ents {
		if !bucket.IsDir() {
			continue
		}
		bdir := filepath.Join(cells, bucket.Name())
		files, err := s.fsys.ReadDir(bdir)
		if err != nil {
			s.ioErr(err)
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		for _, f := range files {
			if f.IsDir() {
				continue
			}
			p := filepath.Join(bdir, f.Name())
			info, ierr := f.Info()
			if rerr := s.fsys.Remove(p); rerr != nil && !errors.Is(rerr, fs.ErrNotExist) {
				s.ioErr(rerr)
				if firstErr == nil {
					firstErr = rerr
				}
				continue
			}
			if ierr == nil {
				freed += info.Size()
			}
		}
	}
	s.bytes.Add(-freed)
	if s.bytes.Load() < 0 {
		s.bytes.Store(0)
	}
	return freed, firstErr
}

// Stats returns the lifetime hit/miss/put counts.
func (s *Store) Stats() (hits, misses, puts int64) {
	return s.hits.Load(), s.misses.Load(), s.puts.Load()
}
