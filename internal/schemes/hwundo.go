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

// undoThread is one thread's hardware-undo-logging state.
type undoThread struct {
	nesting
	logCursor
	local uint64
	rid   arch.RID

	logged      map[arch.LineAddr]bool // LPO issued this region
	dirty       map[arch.LineAddr]bool // lines still needing a DPO
	dpoDone     map[arch.LineAddr]bool // eager DPO already accepted
	pendingLPOs int
	pendingDPOs int
}

// HWUndo is the state-of-the-art hardware undo-logging baseline (Proteus
// style, §6.3): LPOs are initiated automatically in hardware and overlap
// with execution inside the region, DPOs are initiated at region end, and
// the region commits synchronously — instruction execution waits at
// asap_end until every LPO and DPO has completed (§2.3). LPO dropping is
// applied on commit, as in the original work.
type HWUndo struct {
	base
	threads map[int]*undoThread
}

// NewHWUndo builds the hardware undo-logging baseline on m.
func NewHWUndo(m *machine.Machine) *HWUndo {
	s := &HWUndo{base: base{m: m}, threads: make(map[int]*undoThread)}
	m.Caches.SetEvictHook(s.evictWriteback)
	return s
}

// Name implements machine.Scheme.
func (s *HWUndo) Name() string { return "HWUndo" }

// InitThread implements machine.Scheme.
func (s *HWUndo) InitThread(t *sim.Thread) {
	s.threads[t.ID()] = &undoThread{
		logCursor: logCursor{log: wal.NewThreadLog(s.m.Heap, logBytes)},
		logged:    make(map[arch.LineAddr]bool),
		dirty:     make(map[arch.LineAddr]bool),
		dpoDone:   make(map[arch.LineAddr]bool),
	}
	t.Advance(200)
}

func (s *HWUndo) state(t *sim.Thread) *undoThread { return s.threads[t.ID()] }

// Begin implements machine.Scheme.
func (s *HWUndo) Begin(t *sim.Thread) {
	ts := s.state(t)
	if !s.begin(t, &ts.nesting) {
		return
	}
	ts.local++
	ts.rid = arch.MakeRID(t.ID(), ts.local)
	ts.logged = make(map[arch.LineAddr]bool)
	ts.dirty = make(map[arch.LineAddr]bool)
	ts.dpoDone = make(map[arch.LineAddr]bool)
	t.Advance(4)
}

// End implements machine.Scheme: the synchronous commit of §2.3. All LPOs
// must complete, then all DPOs are initiated and must complete, before
// instruction execution proceeds past the region.
func (s *HWUndo) End(t *sim.Thread) {
	ts := s.state(t)
	if !s.end(t, &ts.nesting) {
		return
	}
	// Most DPOs were initiated eagerly when their LPOs completed (§2.3);
	// the remainder are lines whose LPO is still in flight or that were
	// rewritten after their eager DPO. Wait for LPOs, flush the stragglers,
	// wait for all DPOs — the synchronous commit.
	s.prof.Wait(t, obs.FenceWait, func() bool { return ts.pendingLPOs == 0 })
	for _, line := range sortedLines(ts.dirty) {
		s.issueDPO(ts, line)
	}
	s.prof.Wait(t, obs.FenceWait, func() bool { return ts.pendingDPOs == 0 })

	// Committed: the log is freed and its still-queued LPOs dropped
	// (§5.1) when the lazy truncation pass reaches this region.
	logEnd, rid := ts.logEnd, ts.rid
	s.m.K.ScheduleAfter(truncateDelay, func() {
		logEnd.Free(ts.log)
		s.m.Fabric.DropRegionOps(rid)
	})
	ts.rec = 0
	t.Advance(4)
	s.account(t, &ts.nesting, true)
}

// Store implements machine.Scheme: the hardware initiates an LPO on the
// first write to each line, transparently and asynchronously.
func (s *HWUndo) Store(t *sim.Thread, addr uint64, data []byte) {
	ts := s.state(t)
	s.m.Store(t, addr, data, func(line arch.LineAddr, _ *cache.Meta) {
		if ts.nest == 0 {
			return
		}
		ts.dirty[line] = true
		delete(ts.dpoDone, line) // rewritten: the eager DPO is stale
		if ts.logged[line] {
			return
		}
		ts.logged[line] = true
		s.prof.Wait(t, obs.WPQFull, func() bool { return ts.pendingLPOs+ts.pendingDPOs < window })
		s.issueLPO(t, ts, line)
	}, nil)
}

func (s *HWUndo) issueLPO(t *sim.Thread, ts *undoThread, line arch.LineAddr) {
	if ts.rec != 0 && ts.recUsed == wal.RecordEntries {
		// Filled record: its header goes to the WPQ in the background.
		hdr := s.m.Fabric.NewEntry(memdev.KindLogHeader, ts.rid, ts.rec, ts.rec)
		hdr.SetPayload(wal.EncodeHeader(ts.rid, nil))
		s.m.Fabric.SubmitPersist(hdr, nil)
	}
	logLine := s.nextEntry(t, &ts.logCursor)
	e := s.m.Fabric.NewEntry(memdev.KindLPO, ts.rid, logLine, line)
	s.m.Heap.ReadLineInto(line, e.Payload) // old value
	ts.pendingLPOs++
	rid := ts.rid
	*s.m.Cells.LPOsIssued++
	s.m.Fabric.SubmitPersist(e, func(uint64) {
		ts.pendingLPOs--
		// Once the LPO completes, the corresponding DPO is initiated
		// (§2.3) — eagerly, overlapping with the rest of the region.
		if ts.rid == rid && ts.dirty[line] {
			s.issueDPO(ts, line)
		}
	})
}

// issueDPO writes line back in place and records completion. A line
// rewritten while its DPO was in flight stays dirty: the DPO carried the
// old bytes, so End issues another.
func (s *HWUndo) issueDPO(ts *undoThread, line arch.LineAddr) {
	if ts.dpoDone[line] {
		return
	}
	delete(ts.dirty, line)
	ts.pendingDPOs++
	*s.m.Cells.DPOsIssued++
	e := s.m.Fabric.NewEntry(memdev.KindDPO, ts.rid, line, line)
	s.m.Heap.ReadLineInto(line, e.Payload)
	s.m.Fabric.SubmitPersist(e, func(uint64) {
		ts.pendingDPOs--
		if ts.dirty[line] {
			return
		}
		ts.dpoDone[line] = true
		s.m.Caches.MarkClean(line)
	})
}
