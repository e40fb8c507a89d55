// Package heap provides the simulated byte-addressable address space that
// workloads allocate from and the persistence engines snapshot line
// payloads from. It is the architectural memory: always-current values,
// independent of what has actually persisted (that is memdev.Image's job).
//
// The address space has two windows: a persistent window (asap_malloc) and
// a volatile window. A line's window determines the page-table persistence
// bit that seeds the cache PBit (§4.6).
package heap

import (
	"encoding/binary"
	"fmt"

	"asap/internal/arch"
)

const (
	// PersistentBase is the first byte of the persistent window.
	PersistentBase uint64 = 0x1000_0000
	// VolatileBase is the first byte of the volatile window (and the end
	// of the persistent window).
	VolatileBase uint64 = 0x8000_0000

	pageSize = 4096
)

// Heap is the simulated memory plus a simple allocator per window.
// Persistent allocations are 64 B aligned, matching PM allocators and
// keeping distinct objects off shared cache lines (the paper notes false
// sharing produces spurious dependences, §4.6.3).
type Heap struct {
	// Pages live in two dense per-window tables indexed by page number
	// (both windows are bump-allocated from their base, so the index
	// space is compact): a shift+index instead of a map probe on every
	// read and write. Entries allocate lazily on first touch; npages
	// counts allocated pages across both windows.
	persistentPages [][]byte
	volatilePages   [][]byte
	npages          int

	nextPersistent uint64
	nextVolatile   uint64
	sizes          map[uint64]uint64
	freeLists      map[uint64][]uint64 // size class -> addresses (persistent only)
}

// New returns an empty heap.
func New() *Heap {
	return &Heap{
		nextPersistent: PersistentBase,
		nextVolatile:   VolatileBase,
		sizes:          make(map[uint64]uint64),
		freeLists:      make(map[uint64][]uint64),
	}
}

// IsPersistentLine reports whether a line sits in the persistent window:
// the page-table bit of §4.6.
func (h *Heap) IsPersistentLine(line arch.LineAddr) bool {
	return uint64(line) >= PersistentBase && uint64(line) < VolatileBase
}

// IsPersistentAddr reports whether a byte address is persistent.
func (h *Heap) IsPersistentAddr(addr uint64) bool {
	return addr >= PersistentBase && addr < VolatileBase
}

func roundUp(n, to uint64) uint64 { return (n + to - 1) &^ (to - 1) }

// Alloc reserves size bytes in the requested window and returns the base
// address. Persistent allocations are line-aligned and recycled through
// size-class free lists (asap_malloc / asap_free).
func (h *Heap) Alloc(size uint64, persistent bool) uint64 {
	if size == 0 {
		size = 1
	}
	if persistent {
		class := roundUp(size, arch.LineSize)
		if fl := h.freeLists[class]; len(fl) > 0 {
			// Recycled memory keeps its previous contents (malloc
			// semantics): zeroing here would be an unlogged write to
			// persistent memory, invisible to WAL and fatal to recovery.
			addr := fl[len(fl)-1]
			h.freeLists[class] = fl[:len(fl)-1]
			h.sizes[addr] = class
			return addr
		}
		addr := h.nextPersistent
		h.nextPersistent += class
		if h.nextPersistent > VolatileBase {
			panic("heap: persistent window exhausted")
		}
		h.sizes[addr] = class
		return addr
	}
	class := roundUp(size, 8)
	addr := h.nextVolatile
	h.nextVolatile += class
	h.sizes[addr] = class
	return addr
}

// Free returns a persistent allocation to its size-class free list
// (asap_free). Freeing a volatile or unknown address is a no-op beyond
// forgetting its size.
func (h *Heap) Free(addr uint64) {
	size, ok := h.sizes[addr]
	if !ok {
		return
	}
	delete(h.sizes, addr)
	if h.IsPersistentAddr(addr) {
		h.freeLists[size] = append(h.freeLists[size], addr)
	}
}

func (h *Heap) page(addr uint64) []byte {
	var table *[][]byte
	var idx uint64
	if addr >= VolatileBase {
		table, idx = &h.volatilePages, (addr-VolatileBase)/pageSize
	} else if addr >= PersistentBase {
		table, idx = &h.persistentPages, (addr-PersistentBase)/pageSize
	} else {
		panic(fmt.Sprintf("heap: access to unmapped address %#x below the persistent window", addr))
	}
	for idx >= uint64(len(*table)) {
		*table = append(*table, nil)
	}
	p := (*table)[idx]
	if p == nil {
		p = make([]byte, pageSize)
		(*table)[idx] = p
		h.npages++
	}
	return p
}

// Write stores data at addr.
func (h *Heap) Write(addr uint64, data []byte) {
	for len(data) > 0 {
		p := h.page(addr)
		off := addr % pageSize
		n := copy(p[off:], data)
		data = data[n:]
		addr += uint64(n)
	}
}

// Read fills buf from addr.
func (h *Heap) Read(addr uint64, buf []byte) {
	for len(buf) > 0 {
		p := h.page(addr)
		off := addr % pageSize
		n := copy(buf, p[off:])
		buf = buf[n:]
		addr += uint64(n)
	}
}

// ReadLineInto copies the 64 B line at line's address into dst: the
// payload source for LPOs, DPOs and evictions, which fill their pooled
// persist entries in place.
func (h *Heap) ReadLineInto(line arch.LineAddr, dst []byte) {
	h.Read(uint64(line), dst[:arch.LineSize])
}

// ReadU64 loads a little-endian uint64 from addr.
func (h *Heap) ReadU64(addr uint64) uint64 {
	var b [8]byte
	h.Read(addr, b[:])
	return binary.LittleEndian.Uint64(b[:])
}

// String summarizes allocator state.
func (h *Heap) String() string {
	return fmt.Sprintf("heap{persistent %d B, volatile %d B, pages %d}",
		h.nextPersistent-PersistentBase, h.nextVolatile-VolatileBase, h.npages)
}

// Reserve advances the persistent bump pointer past addr, so a heap
// rebuilt from a recovered image never re-allocates live lines.
func (h *Heap) Reserve(addr uint64) {
	if addr >= h.nextPersistent && addr < VolatileBase {
		h.nextPersistent = roundUp(addr+1, arch.LineSize)
	}
}
