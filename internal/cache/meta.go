package cache

import (
	"sort"

	"asap/internal/arch"
)

// Meta is the tag-extension state of one cache line (§4.6, Figure 3 ❷).
// Hardware replicates these bits next to every cached copy and keeps them
// coherent; the simulator keeps the single post-coherence value per line.
type Meta struct {
	line arch.LineAddr

	// PBit marks the line as persistent-memory data; set from the page
	// table bit when the line is brought into the cache.
	PBit bool
	// Locks counts LPOs in flight for the line. The paper describes a
	// single LockBit set between initiating a line's LPO and the LPO's
	// completion (§4.6.1), which suffices when one region at a time logs
	// a line; with regions on different threads first-writing the same
	// line concurrently, each in-flight LPO must keep the line pinned —
	// otherwise the first acceptance would unlock the line and let a
	// newer region's DPO persist a value whose undo entry is still in
	// flight (and lost at a crash). The hardware analogue is a small
	// saturating counter in place of the bit. While Locks > 0 the line
	// may be neither written back (DPO) nor evicted.
	Locks int
	// Owner is the atomic region that last wrote the line, or NoRID.
	Owner arch.RID

	// holders is a bitmask of cores whose private (L1/L2) caches hold the
	// line; used for write invalidations.
	holders uint64
}

// Line returns the line address this metadata describes.
func (m *Meta) Line() arch.LineAddr { return m.line }

// Locked reports whether any LPO for the line is still in flight.
func (m *Meta) Locked() bool { return m.Locks > 0 }

// Lock pins the line for one more in-flight LPO.
func (m *Meta) Lock() { m.Locks++ }

// Unlock releases one in-flight LPO's pin.
func (m *Meta) Unlock() {
	if m.Locks <= 0 {
		panic("cache: unlock of a line with no LPO in flight")
	}
	m.Locks--
}

// Handle is the compact name of one line's Meta slot in the flat store:
// an index into the table's chunked arena. It is what a hardware tag
// extension would carry instead of a full line address.
type Handle int32

// NoHandle marks "no metadata allocated for this line".
const NoHandle Handle = -1

// Meta slots are allocated from fixed-size chunks so that *Meta pointers
// stay valid forever (the engine, the schemes, and the cache slots all
// hold them) while the bulk storage stays contiguous and map-free.
const (
	metaChunkShift = 12 // 4096 lines per chunk
	metaChunkSize  = 1 << metaChunkShift
	metaChunkMask  = metaChunkSize - 1
)

// Table is the line-metadata registry for the whole hierarchy. Metadata
// lives in a flat chunked arena indexed by Handle; the map exists only to
// translate a line address to its handle on the cold first-touch/miss
// path. Hot paths (cache hits, victim scans, DPO eligibility) never touch
// the map: they reach the Meta through a pointer cached in the cache slot
// or in the engine's per-line structures.
type Table struct {
	chunks       [][]Meta
	n            int
	byLine       map[arch.LineAddr]Handle
	isPersistent func(arch.LineAddr) bool
}

// NewTable builds a metadata table. isPersistent is the page-table lookup
// that seeds the PBit on first touch.
func NewTable(isPersistent func(arch.LineAddr) bool) *Table {
	return &Table{byLine: make(map[arch.LineAddr]Handle), isPersistent: isPersistent}
}

// At returns the metadata named by handle h. The pointer is stable for the
// lifetime of the table.
func (t *Table) At(h Handle) *Meta {
	return &t.chunks[h>>metaChunkShift][h&metaChunkMask]
}

// Len returns the number of lines with allocated metadata.
func (t *Table) Len() int { return t.n }

// GetH returns the handle and metadata for line, allocating a slot (with
// the PBit seeded from the page table) on first touch.
func (t *Table) GetH(line arch.LineAddr) (Handle, *Meta) {
	if h, ok := t.byLine[line]; ok {
		return h, t.At(h)
	}
	if t.n>>metaChunkShift == len(t.chunks) {
		t.chunks = append(t.chunks, make([]Meta, metaChunkSize))
	}
	h := Handle(t.n)
	t.n++
	m := t.At(h)
	m.line = line
	m.PBit = t.isPersistent(line)
	t.byLine[line] = h
	return h, m
}

// Get returns the metadata for line, creating it (with the PBit seeded from
// the page table) on first touch.
func (t *Table) Get(line arch.LineAddr) *Meta {
	_, m := t.GetH(line)
	return m
}

// Peek returns the metadata for line without creating it.
func (t *Table) Peek(line arch.LineAddr) *Meta {
	if h, ok := t.byLine[line]; ok {
		return t.At(h)
	}
	return nil
}

// visit calls fn for every allocated Meta in allocation (handle) order.
func (t *Table) visit(fn func(m *Meta)) {
	left := t.n
	for _, chunk := range t.chunks {
		n := len(chunk)
		if left < n {
			n = left
		}
		for i := 0; i < n; i++ {
			fn(&chunk[i])
		}
		left -= n
	}
}

// LocksTotal returns the sum of in-flight-LPO pins across all lines. The
// invariant engine checks it against the engine's own in-flight counter.
func (t *Table) LocksTotal() int {
	n := 0
	t.visit(func(m *Meta) { n += m.Locks })
	return n
}

// VisitLocked calls fn for every line currently pinned by an in-flight
// LPO, in ascending line order (deterministic violation reports).
func (t *Table) VisitLocked(fn func(m *Meta)) {
	locked := make([]*Meta, 0, 8)
	t.visit(func(m *Meta) {
		if m.Locked() {
			locked = append(locked, m)
		}
	})
	sort.Slice(locked, func(i, j int) bool { return locked[i].line < locked[j].line })
	for _, m := range locked {
		fn(m)
	}
}
