package memdev

import "asap/internal/arch"

// Kind classifies a persist operation queued in a WPQ.
type Kind uint8

const (
	// KindLPO is a log persist operation: a data line's old (undo) or new
	// (redo) value written to a log entry address.
	KindLPO Kind = iota
	// KindLogHeader is the metadata line of a filled log record (Figure 5a)
	// being written to its LogHeaderAddr.
	KindLogHeader
	// KindDPO is a data persist operation: a line written back in place.
	KindDPO
	// KindEvict is a dirty persistent line evicted from the LLC. It is not
	// attributable to a region and is never dropped.
	KindEvict
)

func (k Kind) String() string {
	switch k {
	case KindLPO:
		return "LPO"
	case KindLogHeader:
		return "LogHeader"
	case KindDPO:
		return "DPO"
	case KindEvict:
		return "Evict"
	default:
		return "?"
	}
}

// Entry is one 64 B persist operation travelling to persistent memory.
type Entry struct {
	Kind Kind
	// RID is the atomic region the operation belongs to (NoRID for
	// evictions), used by LPO dropping on commit.
	RID arch.RID
	// Dst is the line the payload will be written to in PM: the log entry
	// line for LPOs/headers, the data line for DPOs and evictions.
	Dst arch.LineAddr
	// Subject is the data line the operation concerns. For a DPO it equals
	// Dst; for an LPO it is the line whose old value is being logged, which
	// is what DPO dropping matches on (§5.1: "the DPO can be found using
	// the contents of the LPO, which includes the address of the DPO").
	Subject arch.LineAddr
	// Payload is the 64 B line image carried by the operation. Pooled
	// entries point it at their inline buf; literal entries may alias any
	// caller-owned slice.
	Payload []byte

	dropped    bool
	draining   bool
	acceptedAt uint64

	// buf is the inline payload storage of pooled entries, so the persist
	// hot path (one entry per LPO/DPO/eviction) allocates neither the
	// entry nor its line image after warm-up.
	buf [arch.LineSize]byte
	// pooled marks entries born from Fabric.NewEntry: the channel recycles
	// them once drained or dropped. Literal &Entry{} values (tests) keep
	// their old lifetime.
	pooled bool
}

// SetPayload copies b into the entry's inline buffer and points Payload at
// it. Bytes past len(b) are zeroed, so a recycled buffer never leaks a
// previous operation's image.
func (e *Entry) SetPayload(b []byte) {
	n := copy(e.buf[:], b)
	for i := n; i < len(e.buf); i++ {
		e.buf[i] = 0
	}
	e.Payload = e.buf[:]
}

// entryPool recycles drained and dropped pooled entries. One pool per
// fabric: machines never share one, so no locking is needed even when
// whole simulations run in parallel.
type entryPool struct {
	free []*Entry
}

// get returns a reset entry, reusing a recycled one when available.
func (p *entryPool) get(kind Kind, rid arch.RID, dst, subject arch.LineAddr) *Entry {
	var e *Entry
	if n := len(p.free); n > 0 {
		e = p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
	} else {
		e = &Entry{}
	}
	e.Kind, e.RID, e.Dst, e.Subject = kind, rid, dst, subject
	e.Payload = e.buf[:]
	e.dropped, e.draining = false, false
	e.acceptedAt = 0
	e.pooled = true
	return e
}

// put recycles e. Literal entries pass through untouched so their fields
// stay inspectable after the fact.
func (p *entryPool) put(e *Entry) {
	if e == nil || !e.pooled {
		return
	}
	e.Payload = nil
	p.free = append(p.free, e)
}
