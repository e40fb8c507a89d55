package cache

import (
	"math/bits"

	"asap/internal/arch"
	"asap/internal/memdev"
	"asap/internal/obs"
	"asap/internal/sim"
	"asap/internal/stats"
)

// EvictInfo describes a persistent line leaving the LLC, handed to the
// engine so it can issue the PM writeback and spill the OwnerRID (§5.3).
type EvictInfo struct {
	Line  arch.LineAddr
	Dirty bool
	Meta  *Meta
}

// Hierarchy is the full cache system: private L1/L2 per core, a shared
// inclusive L3, and the tag-extension table.
//
// A core's L1 and L2 are built on its first access: the other cores'
// levels are reached only through a line's holders mask, which names no
// core that never accessed, so their entries stay nil. Release hands
// every level back to a pool that the next hierarchy draws from.
//
// Hot-path layout (this file plus level.go and meta.go is the machine
// model's inner loop): every access first probes the core's L1 with a
// packed-tag scan; an L1 hit — the overwhelmingly common case — returns
// after one scan, one LRU touch, and one cached-counter increment, with
// the line's *Meta read straight from the slot. Only misses walk the
// CanAccess/fill path, and even there every pinned-check and metadata
// reach is a slot-held pointer, never a map probe.
type Hierarchy struct {
	cfg    Config
	st     *stats.Set
	fabric *memdev.Fabric
	cores  int
	l1, l2 []*level // nil until the core's first access
	l3     *level
	table  *Table

	// Cached counter cells: one pointer chase per event instead of a
	// string-keyed map probe (the L1-hit counter fires on every access).
	nL1Hits, nL1Misses *int64
	nL2Hits, nL2Misses *int64
	nL3Hits, nL3Misses *int64
	nEvictions         *int64

	// onLLCEvict is called for every persistent line evicted from the L3
	// (dirty or clean); nil-safe. Dirty non-persistent lines are written
	// back to DRAM internally.
	onLLCEvict func(EvictInfo)
	// onFill is called when a persistent line enters the L3 from memory,
	// letting the engine reload a spilled OwnerRID (§5.3); nil-safe.
	onFill func(arch.LineAddr, *Meta)

	// prof attributes pinned-set stalls; nil when profiling is off.
	prof *obs.Profiler
}

// NewHierarchy builds the hierarchy for the given core count. isPersistent
// is the page-table persistence bit.
func NewHierarchy(st *stats.Set, fabric *memdev.Fabric, cores int, cfg Config, isPersistent func(arch.LineAddr) bool) *Hierarchy {
	h := &Hierarchy{
		cfg:        cfg,
		st:         st,
		fabric:     fabric,
		cores:      cores,
		l1:         make([]*level, cores),
		l2:         make([]*level, cores),
		l3:         getLevel(cfg.L3),
		table:      NewTable(isPersistent),
		nL1Hits:    st.Counter(stats.L1Hits),
		nL1Misses:  st.Counter(stats.L1Misses),
		nL2Hits:    st.Counter(stats.L2Hits),
		nL2Misses:  st.Counter(stats.L2Misses),
		nL3Hits:    st.Counter(stats.L3Hits),
		nL3Misses:  st.Counter(stats.L3Misses),
		nEvictions: st.Counter(stats.Evictions),
	}
	return h
}

// Release returns every cache array to the pool for the next hierarchy.
// The caller must not use h afterwards: any access then panics. A
// hierarchy that is never released is garbage-collected as usual.
func (h *Hierarchy) Release() {
	for _, ls := range [][]*level{h.l1, h.l2, {h.l3}} {
		for _, l := range ls {
			if l != nil {
				putLevel(l)
			}
		}
	}
	h.l1, h.l2, h.l3 = nil, nil, nil
}

// private returns core's L1, building the core's L1 and L2 on its first
// access.
func (h *Hierarchy) private(core int) *level {
	if h.l1[core] == nil {
		h.l1[core] = getLevel(h.cfg.L1)
		h.l2[core] = getLevel(h.cfg.L2)
	}
	return h.l1[core]
}

// SetEvictHook installs the engine's LLC-eviction callback.
func (h *Hierarchy) SetEvictHook(fn func(EvictInfo)) { h.onLLCEvict = fn }

// SetFillHook installs the engine's memory-fill callback.
func (h *Hierarchy) SetFillHook(fn func(arch.LineAddr, *Meta)) { h.onFill = fn }

// SetProfiler attaches a stall-attribution profiler (nil to detach).
func (h *Hierarchy) SetProfiler(p *obs.Profiler) { h.prof = p }

// Table returns the tag-extension table.
func (h *Hierarchy) Table() *Table { return h.table }

// CanAccess reports whether an access by core to line could allocate all
// the slots it needs right now (no set is fully pinned by LockBits).
func (h *Hierarchy) CanAccess(core int, line arch.LineAddr) bool {
	if l1 := h.private(core); l1.lookup(line) < 0 && l1.victim(line) < 0 {
		return false
	}
	if h.l2[core].lookup(line) < 0 && h.l2[core].victim(line) < 0 {
		return false
	}
	if h.l3.lookup(line) < 0 && h.l3.victim(line) < 0 {
		return false
	}
	return true
}

// Access performs one load or store by core to line, returning the hit
// latency in cycles and the line's tag-extension metadata. ok is false —
// with no state changed — when a needed set is fully pinned by LockBits;
// the caller stalls and retries.
func (h *Hierarchy) Access(core int, line arch.LineAddr, write bool) (latency uint64, m *Meta, ok bool) {
	// Fast path: L1 hit. The hierarchy is inclusive (an L2 eviction
	// back-invalidates the L1 copy, an L3 eviction back-invalidates both
	// private levels), so a line present in the L1 is present in L2 and
	// L3 as well: no level needs a fill slot and CanAccess is vacuously
	// true. The slot carries the Meta pointer, so the whole hit costs one
	// packed-tag scan — no map probe, no table call, no victim scan.
	l1 := h.l1[core]
	if l1 == nil {
		l1 = h.private(core)
	}
	if si := l1.lookup(line); si >= 0 {
		m = l1.meta[si]
		*h.nL1Hits++
		l1.touch(si)
		if write {
			l1.dirty[si] = true
			if m.holders&^(1<<uint(core)) != 0 {
				h.invalidateOthers(core, m)
			}
		}
		return h.cfg.L1.Latency, m, true
	}

	// Miss path. Each level is probed exactly once: the lookups double as
	// the CanAccess check (reusing the known slot indices) and as the hit
	// classification, and an L2/L3 hit reads the line's Meta straight from
	// the slot — the table map is probed only on a true memory fill, where
	// the line may need first-touch allocation. Victim scans still run at
	// the same points the split check/fill structure ran them (a lower
	// level's back-invalidation can free ways between check and fill, so
	// the fill-time scan is the one that picks the slot).
	l2, l3 := h.l2[core], h.l3
	s2 := l2.lookup(line)
	s3 := l3.lookup(line)
	if l1.victim(line) < 0 ||
		(s2 < 0 && l2.victim(line) < 0) ||
		(s3 < 0 && l3.victim(line) < 0) {
		return 0, nil, false
	}

	latency = h.cfg.L1.Latency
	*h.nL1Misses++

	switch {
	case s2 >= 0:
		m = l2.meta[s2]
		*h.nL2Hits++
		latency = h.cfg.L2.Latency
	case s3 >= 0:
		m = l3.meta[s3]
		*h.nL2Misses++
		*h.nL3Hits++
		l3.touch(s3)
		latency = h.cfg.L3.Latency
	default:
		m = h.table.Get(line)
		*h.nL2Misses++
		*h.nL3Misses++
		latency = h.cfg.L3.Latency + h.fabric.ReadLatency(line, m.PBit)
		h.fillL3(line, m)
		if m.PBit && h.onFill != nil {
			h.onFill(line, m)
		}
	}

	// Fill L2. s2 stays valid across fillL3: the LLC eviction's
	// back-invalidation removes only the victim line's copies, never
	// line's own slot (and on the memory path inclusion forces s2 < 0).
	if s2 >= 0 {
		l2.touch(s2)
	} else {
		v := l2.victim(line)
		if l2.tags[v] != 0 {
			h.evictFromPrivate(core, l2.lineOf(v), l2.meta[v], l2.dirty[v], 1) // drop L1 copy, merge into L3
		}
		l2.install(v, line, m, false)
	}

	// Fill L1. The line cannot have appeared in L1 since the first scan —
	// nothing above installed it — so go straight to victim selection.
	si := l1.victim(line)
	if l1.tags[si] != 0 {
		// Inclusive hierarchy: the victim is in L2; merge dirtiness there.
		if sd := l2.lookup(l1.lineOf(si)); sd >= 0 {
			l2.dirty[sd] = l2.dirty[sd] || l1.dirty[si]
		}
	}
	l1.install(si, line, m, false)

	if write {
		l1.dirty[si] = true
		h.invalidateOthers(core, m)
	}
	m.holders |= 1 << uint(core)
	return latency, m, true
}

func (h *Hierarchy) fillL3(line arch.LineAddr, m *Meta) {
	if si := h.l3.lookup(line); si >= 0 {
		h.l3.touch(si)
		return
	}
	v := h.l3.victim(line)
	if h.l3.tags[v] != 0 {
		h.evictFromLLC(h.l3.lineOf(v), h.l3.meta[v], h.l3.dirty[v])
	}
	h.l3.install(v, line, m, false)
}

// evictFromPrivate removes line from one core's private caches down to the
// given depth (1 = L1 only) merging dirtiness into L3, updating holders.
func (h *Hierarchy) evictFromPrivate(core int, line arch.LineAddr, m *Meta, dirty bool, depth int) {
	if p, d := h.l1[core].invalidate(line); p {
		dirty = dirty || d
	}
	if depth > 1 {
		if p, d := h.l2[core].invalidate(line); p {
			dirty = dirty || d
		}
	}
	if h.l2[core].lookup(line) < 0 {
		m.holders &^= 1 << uint(core)
	}
	if dirty {
		if s3 := h.l3.lookup(line); s3 >= 0 {
			h.l3.dirty[s3] = true
		}
	}
}

// evictFromLLC removes line from the whole hierarchy (back-invalidation)
// and hands it to memory: persistent lines go to the engine hook, dirty
// volatile lines to DRAM.
func (h *Hierarchy) evictFromLLC(line arch.LineAddr, m *Meta, dirty bool) {
	for core := 0; core < h.cores; core++ {
		if m.holders&(1<<uint(core)) == 0 {
			continue
		}
		if p, d := h.l1[core].invalidate(line); p {
			dirty = dirty || d
		}
		if p, d := h.l2[core].invalidate(line); p {
			dirty = dirty || d
		}
	}
	m.holders = 0
	*h.nEvictions++
	if m.PBit {
		if h.onLLCEvict != nil {
			h.onLLCEvict(EvictInfo{Line: line, Dirty: dirty, Meta: m})
		}
		return
	}
	if dirty {
		h.fabric.WriteBackDRAM()
	}
}

// invalidateOthers removes every other core's private copies of m's line
// when one core writes it (write-invalidate coherence), merging dirtiness
// into the L3.
func (h *Hierarchy) invalidateOthers(core int, m *Meta) {
	for other := 0; other < h.cores; other++ {
		if other == core || m.holders&(1<<uint(other)) == 0 {
			continue
		}
		dirty := false
		if p, d := h.l1[other].invalidate(m.line); p {
			dirty = dirty || d
		}
		if p, d := h.l2[other].invalidate(m.line); p {
			dirty = dirty || d
		}
		if dirty {
			if s3 := h.l3.lookup(m.line); s3 >= 0 {
				h.l3.dirty[s3] = true
			}
		}
		m.holders &^= 1 << uint(other)
	}
}

// MarkClean clears the dirty bit of line everywhere: called when a DPO has
// persisted the line's current content in place. Only cores in the line's
// holders mask are scanned — a line enters a private level exclusively
// through Access, which sets the core's holder bit, and the bit clears
// only after both private copies are invalidated, so holders is always a
// superset of the cores that hold the line (it can overshoot after a
// silent L2 eviction; those scans just miss).
func (h *Hierarchy) MarkClean(line arch.LineAddr) {
	m := h.table.Peek(line)
	if m == nil {
		return // never cached anywhere: every install allocates metadata
	}
	for hold := m.holders; hold != 0; hold &= hold - 1 {
		core := bits.TrailingZeros64(hold)
		if si := h.l1[core].lookup(line); si >= 0 {
			h.l1[core].dirty[si] = false
		}
		if si := h.l2[core].lookup(line); si >= 0 {
			h.l2[core].dirty[si] = false
		}
	}
	if si := h.l3.lookup(line); si >= 0 {
		h.l3.dirty[si] = false
	}
}

// Present reports whether line is anywhere in the hierarchy.
func (h *Hierarchy) Present(line arch.LineAddr) bool {
	return h.l3.lookup(line) >= 0
}

// AccessBlocking is Access plus the stall path: if a needed set is fully
// pinned, the thread waits in simulated time until a LockBit clears. It
// returns the hit latency and the line's metadata, saving the caller a
// table probe on the access hot path.
func (h *Hierarchy) AccessBlocking(t *sim.Thread, core int, line arch.LineAddr, write bool) (uint64, *Meta) {
	for {
		lat, m, ok := h.Access(core, line, write)
		if ok {
			return lat, m
		}
		h.prof.Wait(t, obs.LockedSet, func() bool { return h.CanAccess(core, line) })
	}
}
