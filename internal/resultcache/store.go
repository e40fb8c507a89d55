package resultcache

import (
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

// Store is the on-disk cell cache: an iofault.Blobs under <dir>/cells
// whose Get and Put frame each entry and count hits, misses and puts.
// The counters are atomic, so one Store may serve a whole worker pool.
//
// The cache is the shedable store: it holds only recomputable results,
// so the disk-budget degraded mode empties it first when a watermark is
// breached (Shed).
type Store struct {
	blobs *iofault.Blobs
	dir   string

	hits   atomic.Int64
	misses atomic.Int64
	puts   atomic.Int64
}

// Open opens the cache rooted at dir on the real filesystem.
func Open(dir string) (*Store, error) {
	return OpenFS(iofault.OS{}, dir)
}

// OpenFS opens the cache through an explicit filesystem — the seam the
// hostile-I/O campaign injects faults through.
func OpenFS(fsys iofault.FS, dir string) (*Store, error) {
	b, err := iofault.OpenBlobs(fsys, filepath.Join(dir, "cells"))
	if err != nil {
		return nil, err
	}
	return &Store{blobs: b, dir: dir}, nil
}

// Dir returns the cache root.
func (s *Store) Dir() string { return s.dir }

// Bytes returns the committed entries' on-disk footprint.
func (s *Store) Bytes() int64 { return s.blobs.Bytes() }

// SetErrorHook registers an observer for every I/O failure except
// not-exist. Call before the store is shared.
func (s *Store) SetErrorHook(fn func(error)) { s.blobs.SetErrorHook(fn) }

// Get returns the payload cached under key, or (nil, false) on a miss.
// A corrupt or truncated entry (bad magic, version, length, or CRC) is
// removed and reported as a miss: the cell is recomputed, never trusted.
func (s *Store) Get(key string) ([]byte, bool) {
	raw, err := s.blobs.Get(key)
	if err == nil {
		payload, err := iofault.DecodeFrame(entryMagic, entryVersion, raw)
		if err == nil {
			s.hits.Add(1)
			return payload, true
		}
		s.blobs.Remove(key)
	}
	s.misses.Add(1)
	return nil, false
}

// Put stores payload under key, durably when Put returns. Concurrent
// Puts of the same key are safe: last rename wins, and keying makes
// both contents identical.
func (s *Store) Put(key string, payload []byte) error {
	err := s.blobs.Put(key, iofault.EncodeFrame(entryMagic, entryVersion, payload))
	if err == nil {
		s.puts.Add(1)
	}
	return err
}

// Shed empties the cache and returns the bytes freed — the degraded-
// mode response to a disk-budget breach: every cell is recomputable, so
// dropping them trades CPU for disk without losing anything durable.
func (s *Store) Shed() (int64, error) { return s.blobs.Clear() }

// Stats returns the lifetime hit/miss/put counts.
func (s *Store) Stats() (hits, misses, puts int64) {
	return s.hits.Load(), s.misses.Load(), s.puts.Load()
}
