package cache

import "asap/internal/snapshot"

// appendLevel digests one cache array slot-by-slot: packed tags, dirty
// bits, LRU stamps and clock, and each slot's metadata identity. Slot
// order is structural (set*ways+way), so the encoding is deterministic
// by construction.
func appendLevel(e *snapshot.Enc, l *level) {
	e.U64(l.clock)
	e.I64(int64(len(l.tags)))
	for _, t := range l.tags {
		e.U64(t)
	}
	for _, d := range l.dirty {
		e.Bool(d)
	}
	for _, u := range l.lastUse {
		e.U64(u)
	}
	for _, m := range l.meta {
		if m == nil {
			e.U64(^uint64(0))
		} else {
			e.U64(uint64(m.line))
		}
	}
}

// appendPrivate digests one core's private level, l, of configuration
// cfg. A level that was never built (nil) digests as a new one.
func appendPrivate(e *snapshot.Enc, l *level, cfg LevelConfig) {
	if l != nil {
		appendLevel(e, l)
		return
	}
	n := ceilPow2(cfg.Sets) * cfg.Ways
	e.U64(0)
	e.I64(int64(n))
	for i := 0; i < n; i++ {
		e.U64(0)
	}
	for i := 0; i < n; i++ {
		e.Bool(false)
	}
	for i := 0; i < n; i++ {
		e.U64(0)
	}
	for i := 0; i < n; i++ {
		e.U64(^uint64(0))
	}
}

// AppendState digests the whole cache system: every private L1/L2, the
// shared L3, and the tag-extension table in allocation (handle) order —
// which is deterministic because handle assignment follows first-touch
// order, itself a scheduling outcome. A core's levels that were never
// built digest as empty ones.
func (h *Hierarchy) AppendState(e *snapshot.Enc) {
	e.Section("cache")
	e.I64(int64(h.cores))
	for _, l := range h.l1 {
		appendPrivate(e, l, h.cfg.L1)
	}
	for _, l := range h.l2 {
		appendPrivate(e, l, h.cfg.L2)
	}
	appendLevel(e, h.l3)

	e.Section("cache.table")
	e.I64(int64(h.table.n))
	h.table.visit(func(m *Meta) {
		e.U64(uint64(m.line))
		e.Bool(m.PBit)
		e.I64(int64(m.Locks))
		e.U64(uint64(m.Owner))
		e.U64(m.holders)
	})
}
