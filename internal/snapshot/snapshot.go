// Package snapshot is the versioned, deterministic state-serialization
// layer behind checkpoint/resume (DESIGN.md §15). A snapshot is not a
// byte image of the simulator — Go goroutine continuations cannot be
// serialized — but a consistent cut taken at a cycle boundary: the run's
// identity (config, seed) plus a per-section sha256 digest of every
// explicit-state structure (kernel clock/run-queue/waiters, cache
// tags/meta/line table, WPQ/LH-WPQ, PM image, heap, scheme state, stats
// counters). Because the kernel is bit-deterministic, (identity, seed,
// cycle) uniquely determines machine state; resuming = replaying to the
// boundary, verifying every section digest bit-for-bit, and continuing.
// The digests turn "trust the replay" into "audit the replay": any
// divergence — code change, nondeterminism bug, corrupted snapshot — is
// caught at the first boundary, named by section.
package snapshot

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"path/filepath"

	"asap/internal/iofault"
)

// FormatVersion identifies the snapshot encoding. Bump it whenever a
// section's byte layout changes: digests across versions never compare.
const FormatVersion = 1

// Section is one named state component's digest.
type Section struct {
	Name   string `json:"name"`
	SHA256 string `json:"sha256"`
}

// Enc is the sectioned deterministic encoder every AppendState method
// writes into. All integers are encoded little-endian fixed-width and
// variable-length data is length-prefixed, so encodings never alias
// across field boundaries.
type Enc struct {
	h        hash.Hash
	name     string
	sections []Section
	// buf batches the fixed-width writes into few hash writes: one
	// sha256 Write per 8-byte value dominated audited runs. It is flushed
	// before every variable-length payload and at section close, so the
	// hashed byte stream, and every digest, is unchanged.
	buf []byte
}

// NewEnc returns an encoder with no open section. Callers must open a
// Section before writing values.
func NewEnc() *Enc { return &Enc{buf: make([]byte, 0, 4096)} }

// Section closes the current section (if any) and opens a new one.
func (e *Enc) Section(name string) {
	e.closeSection()
	e.name = name
	e.h = sha256.New()
	e.buf = e.buf[:0]
}

// flush hashes the batched fixed-width writes.
func (e *Enc) flush() {
	e.h.Write(e.buf)
	e.buf = e.buf[:0]
}

func (e *Enc) closeSection() {
	if e.h == nil {
		return
	}
	e.flush()
	e.sections = append(e.sections, Section{
		Name:   e.name,
		SHA256: hex.EncodeToString(e.h.Sum(nil)),
	})
	e.h = nil
}

// U64 appends a fixed-width unsigned integer.
func (e *Enc) U64(v uint64) {
	if len(e.buf)+8 > cap(e.buf) {
		e.flush()
	}
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
}

// I64 appends a fixed-width signed integer.
func (e *Enc) I64(v int64) { e.U64(uint64(v)) }

// Bool appends a boolean.
func (e *Enc) Bool(v bool) {
	if v {
		e.U64(1)
	} else {
		e.U64(0)
	}
}

// Bytes appends length-prefixed raw bytes.
func (e *Enc) Bytes(b []byte) {
	e.U64(uint64(len(b)))
	e.flush()
	e.h.Write(b)
}

// Str appends a length-prefixed string.
func (e *Enc) Str(s string) {
	e.U64(uint64(len(s)))
	e.flush()
	e.h.Write([]byte(s))
}

// Sections closes the current section and returns all digests in the
// order the sections were opened.
func (e *Enc) Sections() []Section {
	e.closeSection()
	return e.sections
}

// Snap is one checkpoint: where the run is (cycle), what the run is
// (identity, seed), and the digests proving what the state was.
type Snap struct {
	Version  int       `json:"version"`
	Identity string    `json:"identity"`
	Seed     int64     `json:"seed"`
	Cycle    uint64    `json:"cycle"`
	Sections []Section `json:"sections"`
}

// Digest returns the snapshot's overall sha256: version, identity, seed,
// cycle and every section digest, in order.
func (s Snap) Digest() string {
	e := NewEnc()
	e.Section("snap")
	e.I64(int64(s.Version))
	e.Str(s.Identity)
	e.I64(s.Seed)
	e.U64(s.Cycle)
	for _, sec := range s.Sections {
		e.Str(sec.Name)
		e.Str(sec.SHA256)
	}
	return e.Sections()[0].SHA256
}

// Diff compares two snapshots and returns a human-readable description
// of every difference (empty = bit-identical). Section digests are
// compared by name so a diverging component is called out directly.
func (s Snap) Diff(o Snap) []string {
	var out []string
	if s.Version != o.Version {
		out = append(out, fmt.Sprintf("version %d != %d", s.Version, o.Version))
	}
	if s.Identity != o.Identity {
		out = append(out, fmt.Sprintf("identity %q != %q", s.Identity, o.Identity))
	}
	if s.Seed != o.Seed {
		out = append(out, fmt.Sprintf("seed %d != %d", s.Seed, o.Seed))
	}
	if s.Cycle != o.Cycle {
		out = append(out, fmt.Sprintf("cycle %d != %d", s.Cycle, o.Cycle))
	}
	theirs := make(map[string]string, len(o.Sections))
	for _, sec := range o.Sections {
		theirs[sec.Name] = sec.SHA256
	}
	seen := make(map[string]bool, len(s.Sections))
	for _, sec := range s.Sections {
		seen[sec.Name] = true
		d, ok := theirs[sec.Name]
		if !ok {
			out = append(out, fmt.Sprintf("section %q missing from other", sec.Name))
			continue
		}
		if d != sec.SHA256 {
			out = append(out, fmt.Sprintf("section %q state diverged (%s != %s)", sec.Name, abbrev(sec.SHA256), abbrev(d)))
		}
	}
	for _, sec := range o.Sections {
		if !seen[sec.Name] {
			out = append(out, fmt.Sprintf("section %q only in other", sec.Name))
		}
	}
	return out
}

// abbrev shortens a digest to the 12 characters a divergence report
// shows; a shorter one, as a damaged file may hold, is shown whole.
func abbrev(digest string) string {
	if len(digest) > 12 {
		return digest[:12]
	}
	return digest
}

// File format: the JSON payload in an iofault frame (magic, version,
// CRC-32, length), written via temp + fsync + rename + parent-directory
// fsync — the same frame and crash discipline as the result cache.
const fileMagic = "ASSN"

// WriteFile durably writes snap to path on the real filesystem.
func WriteFile(path string, snap Snap) error {
	return WriteFileFS(iofault.OS{}, path, snap)
}

// WriteFileFS durably writes snap to path through an explicit
// filesystem — the seam the hostile-I/O campaign injects faults
// through. On any failure path holds its previous content (or remains
// absent), never a torn mix.
func WriteFileFS(fsys iofault.FS, path string, snap Snap) error {
	payload, err := json.Marshal(snap)
	if err != nil {
		return err
	}
	buf := iofault.EncodeFrame(fileMagic, FormatVersion, payload)
	return iofault.WriteDurable(fsys, filepath.Dir(path), path, buf)
}

// ReadFile reads and validates a snapshot written by WriteFile.
func ReadFile(path string) (Snap, error) {
	return ReadFileFS(iofault.OS{}, path)
}

// ReadFileFS reads and validates a snapshot through an explicit
// filesystem. Validation is fail-closed: any framing or checksum damage
// is an error, never a silently partial snapshot, and so is a section
// name that appears twice, which Diff could not match to one digest.
func ReadFileFS(fsys iofault.FS, path string) (Snap, error) {
	raw, err := fsys.ReadFile(path)
	if err != nil {
		return Snap{}, err
	}
	payload, err := iofault.DecodeFrame(fileMagic, FormatVersion, raw)
	if err != nil {
		return Snap{}, fmt.Errorf("snapshot: %s: %w", path, err)
	}
	var snap Snap
	if err := json.Unmarshal(payload, &snap); err != nil {
		return Snap{}, fmt.Errorf("snapshot: %s: %w", path, err)
	}
	seen := make(map[string]bool, len(snap.Sections))
	for _, sec := range snap.Sections {
		if seen[sec.Name] {
			return Snap{}, fmt.Errorf("snapshot: %s: section %q appears twice", path, sec.Name)
		}
		seen[sec.Name] = true
	}
	return snap, nil
}
