package queue

import (
	"crypto/sha256"
	"encoding/hex"
	"path/filepath"
	"strings"

	"asap/internal/iofault"
	"asap/internal/metrics"
)

// Store is the content-addressed artifact store: an iofault.Blobs under
// <dir>/objects, addressed "sha256-<digest>". Puts are idempotent — a
// redelivered job that produced the same bytes lands on the same
// address, which makes at-least-once execution look exactly-once to
// every reader.
type Store struct {
	blobs *iofault.Blobs

	// Service instruments, set by the daemon's metrics wiring; nil-safe.
	metPuts     *metrics.Counter
	metDedup    *metrics.Counter
	metPutBytes *metrics.Counter
}

// OpenStore creates (if needed) and opens the object store rooted at
// dir on the real filesystem.
func OpenStore(dir string) (*Store, error) {
	return OpenStoreFS(iofault.OS{}, dir)
}

// OpenStoreFS opens the store through an explicit filesystem, the seam
// the fault campaigns inject through.
func OpenStoreFS(fsys iofault.FS, dir string) (*Store, error) {
	b, err := iofault.OpenBlobs(fsys, filepath.Join(dir, "objects"))
	if err != nil {
		return nil, err
	}
	return &Store{blobs: b}, nil
}

// Bytes returns the store's current on-disk footprint.
func (s *Store) Bytes() int64 { return s.blobs.Bytes() }

// HashBytes returns the store address of b: "sha256-" + hex digest.
func HashBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return "sha256-" + hex.EncodeToString(sum[:])
}

// digest maps an address to its blob name; one without the "sha256-"
// prefix maps to "", which the blobs reject.
func digest(hash string) string {
	if d, ok := strings.CutPrefix(hash, "sha256-"); ok {
		return d
	}
	return ""
}

// Put stores b and returns its address. An existing object is trusted
// by name (content addressing makes overwrites pointless); a new one is
// durable when Put returns, and absent under its address on failure.
func (s *Store) Put(b []byte) (string, error) {
	hash := HashBytes(b)
	s.metPuts.Inc()
	s.metPutBytes.Add(float64(len(b)))
	if s.blobs.Has(digest(hash)) {
		s.metDedup.Inc()
	} else if err := s.blobs.Put(digest(hash), b); err != nil {
		return "", err
	}
	return hash, nil
}

// Get returns the object at hash.
func (s *Store) Get(hash string) ([]byte, error) { return s.blobs.Get(digest(hash)) }

// Has reports whether the object exists.
func (s *Store) Has(hash string) bool { return s.blobs.Has(digest(hash)) }

// Path returns the validated on-disk path for hash (for http.ServeFile).
func (s *Store) Path(hash string) (string, error) { return s.blobs.Path(digest(hash)) }
