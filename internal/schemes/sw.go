package schemes

import (
	"asap/internal/arch"
	"asap/internal/cache"
	"asap/internal/machine"
	"asap/internal/memdev"
	"asap/internal/obs"
	"asap/internal/sim"
	"asap/internal/wal"
)

// swThread is one thread's software-logging state.
type swThread struct {
	nesting
	logCursor
	logged  map[arch.LineAddr]bool // lines with an undo entry this region
	dirty   map[arch.LineAddr]bool // lines to flush at region end
	pending int                    // outstanding synchronous persists
	local   uint64                 // per-thread region counter
}

// drained reports whether every synchronous persist has been accepted.
func (ts *swThread) drained() bool { return ts.pending == 0 }

// SW is the software undo-logging baseline of §6.3: distributed per-thread
// logs, persist instructions (clwb + fence) on the critical path, persist
// operations hand-coalesced per cache line within a region and overlapped
// where possible (all DPO flushes issued before one final fence).
//
// DPOOnly drops the logging half, leaving only the data flushes: the
// Figure 1 "DPO Only" configuration.
type SW struct {
	base
	threads map[int]*swThread

	// DPOOnly disables LPOs (no WAL): Figure 1's middle bar.
	DPOOnly bool
}

// NewSW builds the software-logging baseline on m; dpoOnly builds the
// Figure 1 "DPO Only" variant.
func NewSW(m *machine.Machine, dpoOnly bool) *SW {
	s := &SW{base: base{m: m}, threads: make(map[int]*swThread), DPOOnly: dpoOnly}
	m.Caches.SetEvictHook(s.evictWriteback)
	return s
}

// Name implements machine.Scheme.
func (s *SW) Name() string {
	if s.DPOOnly {
		return "SW-DPOOnly"
	}
	return "SW"
}

// InitThread implements machine.Scheme.
func (s *SW) InitThread(t *sim.Thread) {
	ts := &swThread{
		logged: make(map[arch.LineAddr]bool),
		dirty:  make(map[arch.LineAddr]bool),
	}
	if !s.DPOOnly {
		ts.log = wal.NewThreadLog(s.m.Heap, logBytes)
	}
	s.threads[t.ID()] = ts
	t.Advance(200)
}

func (s *SW) state(t *sim.Thread) *swThread { return s.threads[t.ID()] }

// Begin implements machine.Scheme.
func (s *SW) Begin(t *sim.Thread) {
	ts := s.state(t)
	if !s.begin(t, &ts.nesting) {
		return
	}
	ts.local++
	ts.logged = make(map[arch.LineAddr]bool)
	ts.dirty = make(map[arch.LineAddr]bool)
	t.Advance(swInstrOverhead)
}

// End implements machine.Scheme: flush every dirty line (overlapped), wait
// for all the flushes, persist the commit record, free the log. All of it
// on the critical path — the cost Figure 1 quantifies.
func (s *SW) End(t *sim.Thread) {
	ts := s.state(t)
	if !s.end(t, &ts.nesting) {
		return
	}
	// clwb every dirty line, then a single fence (hand-overlapped).
	for _, line := range sortedLines(ts.dirty) {
		ts.pending++
		*s.m.Cells.DPOsIssued++
		e := s.m.Fabric.NewEntry(memdev.KindDPO, arch.NoRID, line, line)
		s.m.Heap.ReadLineInto(line, e.Payload)
		s.m.Fabric.SubmitPersist(e, func(uint64) { ts.pending--; s.m.Caches.MarkClean(line) })
		t.Advance(swInstrOverhead)
	}
	s.prof.Wait(t, obs.FenceWait, ts.drained)

	if !s.DPOOnly && len(ts.logged) > 0 {
		// Persist the commit record (log truncation point) and wait.
		ts.pending++
		hdr := s.m.Fabric.NewEntry(memdev.KindLogHeader, arch.NoRID, ts.rec, ts.rec)
		hdr.SetPayload(wal.EncodeHeader(arch.MakeRID(t.ID(), ts.local), firstLines(ts.logged)))
		s.m.Fabric.SubmitPersist(hdr, func(uint64) { ts.pending-- })
		s.prof.Wait(t, obs.FenceWait, ts.drained)
		ts.logEnd.Free(ts.log)
		ts.rec = 0
	}
	t.Advance(swInstrOverhead)
	s.account(t, &ts.nesting, true)
}

// Store implements machine.Scheme: on the first write to a line in a
// region, write the undo entry and clwb+fence it before the store may
// proceed — the write-ahead rule enforced in software.
func (s *SW) Store(t *sim.Thread, addr uint64, data []byte) {
	ts := s.state(t)
	s.m.Store(t, addr, data, func(line arch.LineAddr, _ *cache.Meta) {
		if ts.nest == 0 {
			return
		}
		ts.dirty[line] = true
		if s.DPOOnly || ts.logged[line] {
			return // hand-coalesced: one undo entry per line per region
		}
		s.appendUndo(t, ts, line)
		ts.logged[line] = true
	}, nil)
}

// appendUndo writes one undo entry through the cache, then clwb+fence: the
// old value must be durable before the data write lands (WAL).
func (s *SW) appendUndo(t *sim.Thread, ts *swThread, line arch.LineAddr) {
	logLine := s.nextEntry(t, &ts.logCursor)
	e := s.m.Fabric.NewEntry(memdev.KindLPO, arch.NoRID, logLine, line)
	s.m.Heap.ReadLineInto(line, e.Payload) // old value, read before the log store can yield
	// The software store of the log entry goes through the cache.
	lat, _ := s.m.Caches.AccessBlocking(t, s.m.CoreOf(t), logLine, true)
	t.Advance(lat + swInstrOverhead)
	// clwb + mfence: wait for WPQ acceptance before continuing.
	ts.pending++
	*s.m.Cells.LPOsIssued++
	s.m.Fabric.SubmitPersist(e, func(uint64) { ts.pending--; s.m.Caches.MarkClean(logLine) })
	s.prof.Wait(t, obs.FenceWait, ts.drained)
}
