package workload

import (
	"encoding/binary"
	"fmt"

	"asap/internal/sim"
)

// StringSwap (SS) performs random swaps in a persistent array of strings,
// after the WHISPER/persistency-for-SFR workload: each operation reads two
// slots and writes both back exchanged, all in one atomic region. Each
// slot is line-aligned and ValueBytes long; the first 8 bytes carry the
// string's original index so Check can verify the array remains a
// permutation.
type StringSwap struct {
	mu     sim.Mutex
	base   uint64
	slots  int
	vbytes int
}

// NewStringSwap returns an SS benchmark.
func NewStringSwap() *StringSwap { return &StringSwap{} }

// Name implements Benchmark.
func (s *StringSwap) Name() string { return "SS" }

func (s *StringSwap) slotAddr(i int) uint64 {
	stride := uint64((s.vbytes + 63) / 64 * 64)
	return s.base + uint64(i)*stride
}

// Setup implements Benchmark.
func (s *StringSwap) Setup(c *Ctx, cfg Config) {
	s.vbytes = cfg.ValueBytes
	if s.vbytes < 8 {
		s.vbytes = 8
	}
	s.slots = cfg.InitialItems
	if s.slots < 2 {
		s.slots = 2
	}
	stride := (s.vbytes + 63) / 64 * 64
	s.base = c.Alloc(stride * s.slots)
	buf := make([]byte, s.vbytes)
	for i := 0; i < s.slots; i++ {
		binary.LittleEndian.PutUint64(buf, uint64(i))
		for j := 8; j < len(buf); j++ {
			buf[j] = byte(i + j)
		}
		c.StoreBytes(s.slotAddr(i), buf)
	}
}

// Op implements Benchmark: swap two random strings atomically.
func (s *StringSwap) Op(c *Ctx, i int) {
	a := c.Rng.Intn(s.slots)
	b := c.Rng.Intn(s.slots)
	if a == b {
		b = (b + 1) % s.slots
	}
	s.mu.Lock(c.T)
	c.Begin()
	va := c.LoadBytes(s.slotAddr(a), s.vbytes)
	vb := c.LoadBytes(s.slotAddr(b), s.vbytes)
	c.StoreBytes(s.slotAddr(a), vb)
	c.StoreBytes(s.slotAddr(b), va)
	c.End()
	s.mu.Unlock(c.T)
}

// Check implements Benchmark: the slot tags must still form a permutation
// of 0..slots-1.
func (s *StringSwap) Check(read func(uint64) uint64) string {
	seen := make([]bool, s.slots)
	for i := 0; i < s.slots; i++ {
		tag := read(s.slotAddr(i))
		if tag >= uint64(s.slots) {
			return fmt.Sprintf("SS: slot %d holds invalid tag %d", i, tag)
		}
		if seen[tag] {
			return fmt.Sprintf("SS: tag %d duplicated", tag)
		}
		seen[tag] = true
	}
	return ""
}
