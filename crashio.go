package asap

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"slices"

	"asap/internal/arch"
	"asap/internal/core"
)

// Save serializes the crash state (the persisted image plus the
// persistence-domain metadata recovery needs) so it can be stored and
// recovered later, possibly in another process — the moral equivalent of
// the machine sitting powered off.
func (c *CrashState) Save(w io.Writer) error {
	if err := gob.NewEncoder(w).Encode(c.cs); err != nil {
		return fmt.Errorf("asap: saving crash state: %w", err)
	}
	return nil
}

// LoadCrashState reads a crash state previously written by Save. The
// result supports Recover and the image readers exactly like a live one.
// A truncated, corrupt, or structurally malformed input yields an error —
// never a panic — so untrusted crash files are safe to load.
func LoadCrashState(r io.Reader) (cs *CrashState, err error) {
	defer func() {
		if p := recover(); p != nil {
			cs, err = nil, fmt.Errorf("asap: loading crash state: malformed input: %v", p)
		}
	}()
	raw := &core.CrashState{}
	if derr := gob.NewDecoder(r).Decode(raw); derr != nil {
		return nil, fmt.Errorf("asap: loading crash state: %w", derr)
	}
	if verr := raw.Validate(); verr != nil {
		return nil, fmt.Errorf("asap: loading crash state: %w", verr)
	}
	return &CrashState{cs: raw}, nil
}

// ErrLineNotPersistent reports a recovered image that holds a line outside
// the persistent window: recovery wrote where no persistent structure can
// live, so the image cannot be booted.
var ErrLineNotPersistent = errors.New("asap: recovered line outside the persistent window")

// NewSystemFromCrash builds a fresh system — the machine after the power
// was restored — whose persistent memory holds exactly the recovered
// image. Call Recover on the crash state first; volatile state (caches,
// DRAM, thread registers) starts empty, as §5.5's recovery leaves it.
// The allocator resumes above every recovered line, so existing structures
// are never re-allocated over. An image with a line outside the persistent
// window yields ErrLineNotPersistent, naming the lowest such line.
func NewSystemFromCrash(cfg Config, c *CrashState) (*System, error) {
	sys, err := NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	heap := sys.m.Heap
	pm := sys.m.Fabric.PM()
	var bad []arch.LineAddr
	c.cs.Image.Lines(func(line arch.LineAddr, payload []byte) {
		if !heap.IsPersistentLine(line) {
			bad = append(bad, line)
			return
		}
		// The architectural memory and the device contents both carry the
		// recovered bytes: it is the same physical module, power-cycled.
		heap.Write(uint64(line), payload)
		pm.Write(line, payload)
		heap.Reserve(uint64(line) + arch.LineSize - 1)
	})
	if len(bad) > 0 {
		return nil, fmt.Errorf("%w: line %#x", ErrLineNotPersistent, uint64(slices.Min(bad)))
	}
	return sys, nil
}
