package memdev

import (
	"math/bits"
	"sort"

	"asap/internal/arch"
	"asap/internal/snapshot"
)

// appendEntry digests one persist operation in flight or queued.
func appendEntry(e *snapshot.Enc, en *Entry) {
	e.U64(uint64(en.Kind))
	e.U64(uint64(en.RID))
	e.U64(uint64(en.Dst))
	e.U64(uint64(en.Subject))
	e.Bytes(en.Payload)
	e.Bool(en.dropped)
	e.Bool(en.draining)
	e.U64(en.acceptedAt)
}

// appendHeader digests one LH-WPQ log record.
func appendHeader(e *snapshot.Enc, h *LogHeader, closing bool) {
	e.U64(uint64(h.RID))
	e.U64(uint64(h.HeaderAddr))
	e.Bool(closing)
	e.I64(int64(len(h.DataLines)))
	for i := range h.DataLines {
		e.U64(uint64(h.DataLines[i]))
		e.U64(uint64(h.LogLines[i]))
		e.U64(uint64(h.EntryCRCs[i]))
	}
	e.U64(uint64(h.PayloadCRC))
}

// AppendState digests the memory system: per-channel WPQ contents
// (queued, in-flight, arrival backlog), the LH-WPQ resident set (in its
// deterministic sorted order), and the persisted PM image sorted by line
// address — the image's map iteration order must never reach a digest.
func (f *Fabric) AppendState(e *snapshot.Enc) {
	e.Section("mem.wpq")
	e.I64(int64(len(f.channels)))
	for _, c := range f.channels {
		e.I64(int64(c.id))
		e.I64(int64(c.queue.n))
		for i := 0; i < c.queue.n; i++ {
			appendEntry(e, c.queue.at(i))
		}
		e.Bool(c.inflight != nil)
		if c.inflight != nil {
			appendEntry(e, c.inflight)
		}
		e.Bool(c.pickupPending)
		e.I64(int64(len(c.arrivals)))
		for _, a := range c.arrivals {
			appendEntry(e, a.e)
		}
		e.I64(int64(c.lh.Len()))
		e.I64(int64(c.lh.peak))
		c.lh.VisitResident(func(h *LogHeader, closing bool) {
			appendHeader(e, h, closing)
		})
	}

	e.Section("mem.pm")
	f.pm.AppendState(e)
}

// AppendState digests the persisted image in ascending line order.
func (im *Image) AppendState(e *snapshot.Enc) {
	keys := make([]arch.LineAddr, 0, len(im.slabs))
	for key := range im.slabs {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	e.I64(int64(im.n))
	for _, key := range keys {
		s := im.slabs[key]
		for has := s.has; has != 0; has &= has - 1 {
			i := bits.TrailingZeros64(has)
			e.U64(uint64(key + arch.LineAddr(i*arch.LineSize)))
			e.Bytes(s.line(i))
		}
	}
}
