package memdev

import (
	"sort"

	"asap/internal/arch"
)

// LogHeader mirrors Figure 5a: the metadata line of one log record, holding
// the owning region, and for each of the record's data entries the data
// line it logged and the log line the old value was written to. A record
// has room for seven data entries plus the header line.
//
// DataLines/LogLines list only entries whose LPO has been accepted by a
// WPQ: entries still in flight are not in the persistence domain yet, so a
// crash must not try to restore from them.
type LogHeader struct {
	RID arch.RID
	// HeaderAddr is the PM line the header will be written to when the
	// record fills.
	HeaderAddr arch.LineAddr
	// DataLines[i] is the data line whose value log entry i holds.
	DataLines []arch.LineAddr
	// LogLines[i] is the PM line log entry i was written to.
	LogLines []arch.LineAddr
	// EntryCRCs[i] is the CRC-32 of log entry i's payload, captured at
	// WPQ acceptance so recovery can detect a torn or bit-flipped entry.
	EntryCRCs []uint32
	// PayloadCRC is the running CRC-32 over the accepted entries'
	// payloads in order — the value the record's header line carries when
	// it closes.
	PayloadCRC uint32
}

// RecordEntries is the number of data entries per log record (Figure 5a:
// one header cache line addressing seven 64 B log entries).
const RecordEntries = 7

func (h *LogHeader) clone() *LogHeader {
	return &LogHeader{
		RID:        h.RID,
		HeaderAddr: h.HeaderAddr,
		DataLines:  append([]arch.LineAddr(nil), h.DataLines...),
		LogLines:   append([]arch.LineAddr(nil), h.LogLines...),
		EntryCRCs:  append([]uint32(nil), h.EntryCRCs...),
		PayloadCRC: h.PayloadCRC,
	}
}

// LHWPQ is the Log Header Write Pending Queue (§5.5): a persistence-domain
// structure holding, for every uncommitted region homed on this channel,
// the header of the region's latest (still filling) log record — plus
// filled records whose header line is being moved to the ordinary WPQ
// (Figure 5b). The move happens entirely inside the persistence domain, so
// a header entry only leaves once its WPQ write has been accepted.
type LHWPQ struct {
	cap     int
	peak    int
	open    map[arch.RID]*LogHeader      // filling record per region
	closing map[arch.LineAddr]*LogHeader // filled, header write in flight
}

func newLHWPQ(capacity int) *LHWPQ {
	return &LHWPQ{
		cap:     capacity,
		open:    make(map[arch.RID]*LogHeader),
		closing: make(map[arch.LineAddr]*LogHeader),
	}
}

// Len returns the number of occupied entries (open plus closing).
func (q *LHWPQ) Len() int { return len(q.open) + len(q.closing) }

// Cap returns the queue's slot capacity.
func (q *LHWPQ) Cap() int { return q.cap }

// VisitResident calls fn for every resident header — open records first,
// then closing — in (RID, HeaderAddr) order. Unlike Snapshot it does not
// clone: fn must treat the headers as read-only. The invariant engine uses
// it for per-step conservation checks without allocation pressure.
func (q *LHWPQ) VisitResident(fn func(h *LogHeader, closing bool)) {
	for _, h := range sortedHeaders(q.open) {
		fn(h, false)
	}
	for _, h := range q.closingSorted() {
		fn(h, true)
	}
}

// sortedHeaders orders a RID-keyed header map by (RID, HeaderAddr).
func sortedHeaders(m map[arch.RID]*LogHeader) []*LogHeader {
	out := make([]*LogHeader, 0, len(m))
	for _, h := range m {
		out = append(out, h)
	}
	sortHeaders(out)
	return out
}

func (q *LHWPQ) closingSorted() []*LogHeader {
	out := make([]*LogHeader, 0, len(q.closing))
	for _, h := range q.closing {
		out = append(out, h)
	}
	sortHeaders(out)
	return out
}

func sortHeaders(hs []*LogHeader) {
	sort.Slice(hs, func(i, j int) bool {
		if hs[i].RID != hs[j].RID {
			return hs[i].RID < hs[j].RID
		}
		return hs[i].HeaderAddr < hs[j].HeaderAddr
	})
}

// HasSpaceFor reports whether region r could hold an open header entry
// right now: either it already has one, or a slot is free.
func (q *LHWPQ) HasSpaceFor(r arch.RID) bool {
	if _, ok := q.open[r]; ok {
		return true
	}
	return q.Len() < q.cap
}

// Open starts a new record header for region r. It panics if no slot is
// available (callers gate on HasSpaceFor, stalling in simulated time).
func (q *LHWPQ) Open(r arch.RID, headerAddr arch.LineAddr) *LogHeader {
	if _, ok := q.open[r]; ok {
		panic("memdev: region already has an open log record: " + r.String())
	}
	if q.Len() >= q.cap {
		panic("memdev: LH-WPQ overflow")
	}
	h := &LogHeader{RID: r, HeaderAddr: headerAddr}
	q.open[r] = h
	if n := q.Len(); n > q.peak {
		q.peak = n
	}
	return h
}

// Current returns region r's open header, or nil.
func (q *LHWPQ) Current(r arch.RID) *LogHeader { return q.open[r] }

// BeginClose moves region r's filled record from open to closing: the
// region can open its next record while the header line travels to the
// WPQ. Returns the closing header.
func (q *LHWPQ) BeginClose(r arch.RID) *LogHeader {
	h := q.open[r]
	if h == nil {
		return nil
	}
	delete(q.open, r)
	q.closing[h.HeaderAddr] = h
	return h
}

// FinishClose removes a closing record once its header write has been
// accepted by the WPQ (it is then persistence-domain resident there).
func (q *LHWPQ) FinishClose(headerAddr arch.LineAddr) {
	delete(q.closing, headerAddr)
}

// Release discards region r's open header, if any, without writing it: on
// commit the region's log is freed, so a partial record's header will never
// be read (§5.5 "Freeing the Log on Commit"). Closing entries drain on
// their own header-write accepts.
func (q *LHWPQ) Release(r arch.RID) {
	delete(q.open, r)
}

// Snapshot returns copies of all resident headers — open records first,
// then closing, each group in (RID, HeaderAddr) order — as flushed on a
// crash. Every listed entry's LPO was accepted, so restoring from them is
// safe even if the header line write itself never made it out. The order
// is deterministic so seeded fault injectors make reproducible per-header
// decisions.
func (q *LHWPQ) Snapshot() []*LogHeader {
	out := make([]*LogHeader, 0, q.Len())
	q.VisitResident(func(h *LogHeader, _ bool) {
		out = append(out, h.clone())
	})
	return out
}
