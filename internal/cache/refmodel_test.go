package cache

// This file preserves, verbatim up to renaming, the cache model as it stood
// before the machine-model fast path (PR 6): the associative linear tag
// scan in refLevel.lookup/victim, the map[LineAddr]*Meta metadata table,
// and the original Hierarchy access/fill/evict logic. It exists only as the
// reference model for the randomized trace-equivalence test in
// equivalence_test.go — the same proof structure PR 4 used for the kernel
// (refkernel_test.go): the optimized model must reproduce this model's
// hit/miss/evict/stall behavior exactly, on every seed.
//
// Do not "improve" this code; its value is that it does not change.

import (
	"asap/internal/arch"
	"asap/internal/memdev"
	"asap/internal/stats"
)

// refSlot is one way of one set (pre-fast-path layout).
type refSlot struct {
	line    arch.LineAddr
	valid   bool
	dirty   bool
	lastUse uint64
}

// refLevel is one cache array with the original associative scan.
type refLevel struct {
	cfg   LevelConfig
	sets  [][]refSlot
	clock uint64
}

func newRefLevel(cfg LevelConfig) *refLevel {
	l := &refLevel{cfg: cfg, sets: make([][]refSlot, cfg.Sets)}
	backing := make([]refSlot, cfg.Sets*cfg.Ways)
	for i := range l.sets {
		l.sets[i] = backing[i*cfg.Ways : (i+1)*cfg.Ways : (i+1)*cfg.Ways]
	}
	return l
}

func (l *refLevel) setOf(line arch.LineAddr) []refSlot {
	return l.sets[int(uint64(line)>>arch.LineShift)%l.cfg.Sets]
}

func (l *refLevel) lookup(line arch.LineAddr) *refSlot {
	set := l.setOf(line)
	for i := range set {
		if set[i].valid && set[i].line == line {
			return &set[i]
		}
	}
	return nil
}

func (l *refLevel) touch(s *refSlot) {
	l.clock++
	s.lastUse = l.clock
}

func (l *refLevel) victim(line arch.LineAddr, pinned func(arch.LineAddr) bool) *refSlot {
	set := l.setOf(line)
	var lru *refSlot
	for i := range set {
		s := &set[i]
		if !s.valid {
			return s
		}
		if pinned(s.line) {
			continue
		}
		if lru == nil || s.lastUse < lru.lastUse {
			lru = s
		}
	}
	return lru
}

func (l *refLevel) invalidate(line arch.LineAddr) (present, dirty bool) {
	if s := l.lookup(line); s != nil {
		s.valid = false
		return true, s.dirty
	}
	return false, false
}

func (l *refLevel) install(s *refSlot, line arch.LineAddr, dirty bool) {
	s.line = line
	s.valid = true
	s.dirty = dirty
	l.touch(s)
}

// refMeta is the pre-flattening per-line metadata (one heap allocation per
// line, reached through a map).
type refMeta struct {
	line    arch.LineAddr
	PBit    bool
	Locks   int
	Owner   arch.RID
	holders uint64
}

func (m *refMeta) Locked() bool { return m.Locks > 0 }
func (m *refMeta) Lock()        { m.Locks++ }
func (m *refMeta) Unlock() {
	if m.Locks <= 0 {
		panic("refcache: unlock of a line with no LPO in flight")
	}
	m.Locks--
}

// refTable is the original map-backed metadata registry.
type refTable struct {
	meta         map[arch.LineAddr]*refMeta
	isPersistent func(arch.LineAddr) bool
}

func newRefTable(isPersistent func(arch.LineAddr) bool) *refTable {
	return &refTable{meta: make(map[arch.LineAddr]*refMeta), isPersistent: isPersistent}
}

func (t *refTable) Get(line arch.LineAddr) *refMeta {
	m, ok := t.meta[line]
	if !ok {
		m = &refMeta{line: line, PBit: t.isPersistent(line)}
		t.meta[line] = m
	}
	return m
}

func (t *refTable) Peek(line arch.LineAddr) *refMeta { return t.meta[line] }

// refEvictInfo mirrors EvictInfo for the reference hierarchy.
type refEvictInfo struct {
	Line  arch.LineAddr
	Dirty bool
	Meta  *refMeta
}

// refHierarchy is the original Hierarchy: CanAccess-then-Get access path,
// map-probing pinned() checks, per-way Table.Peek in victim selection.
type refHierarchy struct {
	cfg    Config
	st     *stats.Set
	fabric *memdev.Fabric
	cores  int
	l1, l2 []*refLevel
	l3     *refLevel
	table  *refTable

	onLLCEvict func(refEvictInfo)
	onFill     func(arch.LineAddr, *refMeta)
}

func newRefHierarchy(st *stats.Set, fabric *memdev.Fabric, cores int, cfg Config, isPersistent func(arch.LineAddr) bool) *refHierarchy {
	h := &refHierarchy{
		cfg:    cfg,
		st:     st,
		fabric: fabric,
		cores:  cores,
		l3:     newRefLevel(cfg.L3),
		table:  newRefTable(isPersistent),
	}
	for i := 0; i < cores; i++ {
		h.l1 = append(h.l1, newRefLevel(cfg.L1))
		h.l2 = append(h.l2, newRefLevel(cfg.L2))
	}
	return h
}

func (h *refHierarchy) pinned(line arch.LineAddr) bool {
	m := h.table.Peek(line)
	return m != nil && m.Locked()
}

func (h *refHierarchy) CanAccess(core int, line arch.LineAddr) bool {
	if h.l1[core].lookup(line) == nil && h.l1[core].victim(line, h.pinned) == nil {
		return false
	}
	if h.l2[core].lookup(line) == nil && h.l2[core].victim(line, h.pinned) == nil {
		return false
	}
	if h.l3.lookup(line) == nil && h.l3.victim(line, h.pinned) == nil {
		return false
	}
	return true
}

func (h *refHierarchy) Access(core int, line arch.LineAddr, write bool) (latency uint64, ok bool) {
	if !h.CanAccess(core, line) {
		return 0, false
	}
	m := h.table.Get(line)

	latency = h.cfg.L1.Latency
	if s := h.l1[core].lookup(line); s != nil {
		(*h.st.Counter(stats.L1Hits))++
		h.l1[core].touch(s)
		if write {
			s.dirty = true
			h.invalidateOthers(core, m)
		}
		return latency, true
	}
	(*h.st.Counter(stats.L1Misses))++

	switch {
	case h.l2[core].lookup(line) != nil:
		(*h.st.Counter(stats.L2Hits))++
		latency = h.cfg.L2.Latency
	case h.l3.lookup(line) != nil:
		(*h.st.Counter(stats.L2Misses))++
		(*h.st.Counter(stats.L3Hits))++
		h.l3.touch(h.l3.lookup(line))
		latency = h.cfg.L3.Latency
	default:
		(*h.st.Counter(stats.L2Misses))++
		(*h.st.Counter(stats.L3Misses))++
		latency = h.cfg.L3.Latency + h.fabric.ReadLatency(line, m.PBit)
		h.fillL3(line)
		if m.PBit && h.onFill != nil {
			h.onFill(line, m)
		}
	}
	h.fillL2(core, line)
	s := h.fillL1(core, line)
	if write {
		s.dirty = true
		h.invalidateOthers(core, m)
	}
	m.holders |= 1 << uint(core)
	return latency, true
}

func (h *refHierarchy) fillL1(core int, line arch.LineAddr) *refSlot {
	l := h.l1[core]
	if s := l.lookup(line); s != nil {
		l.touch(s)
		return s
	}
	v := l.victim(line, h.pinned)
	if v.valid {
		if s2 := h.l2[core].lookup(v.line); s2 != nil {
			s2.dirty = s2.dirty || v.dirty
		}
	}
	l.install(v, line, false)
	return v
}

func (h *refHierarchy) fillL2(core int, line arch.LineAddr) {
	l := h.l2[core]
	if s := l.lookup(line); s != nil {
		l.touch(s)
		return
	}
	v := l.victim(line, h.pinned)
	if v.valid {
		h.evictFromPrivate(core, v.line, v.dirty, 1)
	}
	l.install(v, line, false)
}

func (h *refHierarchy) fillL3(line arch.LineAddr) {
	if s := h.l3.lookup(line); s != nil {
		h.l3.touch(s)
		return
	}
	v := h.l3.victim(line, h.pinned)
	if v.valid {
		h.evictFromLLC(v.line, v.dirty)
	}
	h.l3.install(v, line, false)
}

func (h *refHierarchy) evictFromPrivate(core int, line arch.LineAddr, dirty bool, depth int) {
	if p, d := h.l1[core].invalidate(line); p {
		dirty = dirty || d
	}
	if depth > 1 {
		if p, d := h.l2[core].invalidate(line); p {
			dirty = dirty || d
		}
	}
	if h.l2[core].lookup(line) == nil {
		if m := h.table.Peek(line); m != nil {
			m.holders &^= 1 << uint(core)
		}
	}
	if dirty {
		if s3 := h.l3.lookup(line); s3 != nil {
			s3.dirty = true
		}
	}
}

func (h *refHierarchy) evictFromLLC(line arch.LineAddr, dirty bool) {
	m := h.table.Get(line)
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
	(*h.st.Counter(stats.Evictions))++
	if m.PBit {
		if h.onLLCEvict != nil {
			h.onLLCEvict(refEvictInfo{Line: line, Dirty: dirty, Meta: m})
		}
		return
	}
	if dirty {
		h.fabric.WriteBackDRAM()
	}
}

func (h *refHierarchy) invalidateOthers(core int, m *refMeta) {
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
			if s3 := h.l3.lookup(m.line); s3 != nil {
				s3.dirty = true
			}
		}
		m.holders &^= 1 << uint(other)
	}
}

func (h *refHierarchy) MarkClean(line arch.LineAddr) {
	for core := 0; core < h.cores; core++ {
		if s := h.l1[core].lookup(line); s != nil {
			s.dirty = false
		}
		if s := h.l2[core].lookup(line); s != nil {
			s.dirty = false
		}
	}
	if s := h.l3.lookup(line); s != nil {
		s.dirty = false
	}
}

func (h *refHierarchy) Present(line arch.LineAddr) bool {
	return h.l3.lookup(line) != nil
}
