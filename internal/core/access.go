package core

import (
	"sort"

	"asap/internal/arch"
	"asap/internal/cache"
	"asap/internal/machine"
	"asap/internal/memdev"
	"asap/internal/obs"
	"asap/internal/sim"
	"asap/internal/trace"
	"asap/internal/wal"
)

// Load implements a program load: cache timing plus data-dependence
// capture on persistent lines (§4.6.3).
func (e *Engine) Load(t *sim.Thread, addr uint64, buf []byte) {
	ts := e.state(t)
	machine.VisitLines(addr, len(buf), func(line arch.LineAddr) {
		lat, meta := e.m.Caches.AccessBlocking(t, ts.core, line, false)
		t.Advance(lat)
		if e.m.Heap.IsPersistentLine(line) {
			e.onPersistentAccess(t, ts, line, meta, false)
		}
	})
	e.m.Heap.Read(addr, buf)
}

// Store implements a program store: cache timing, dependence capture,
// first-write LPO initiation (§4.6.1) and CLPtr tracking (§4.6.2). The
// heap is updated after the old line values have been snapshotted for the
// undo log.
func (e *Engine) Store(t *sim.Thread, addr uint64, data []byte) {
	ts := e.state(t)
	e.m.Store(t, addr, data, func(line arch.LineAddr, meta *cache.Meta) {
		e.onPersistentAccess(t, ts, line, meta, true)
	}, nil)
}

// onPersistentAccess performs the §4.6 per-access hardware work. meta is
// the line's tag-extension metadata, threaded through from the cache
// access so the hot path never re-probes the table.
func (e *Engine) onPersistentAccess(t *sim.Thread, ts *threadState, line arch.LineAddr, meta *cache.Meta, isWrite bool) {
	r := ts.cur
	if r == nil {
		// Access outside any atomic region: not logged, not tracked. A
		// write makes the previous owner's RID meaningless for recovery
		// purposes, so clear it.
		if isWrite {
			meta.Owner = arch.NoRID
		}
		return
	}

	// Dependence capture on every read and write (§4.6.3).
	if owner := meta.Owner; owner != arch.NoRID && owner != r.rid {
		if e.depOf(owner) != nil {
			e.addDep(t, r, owner)
		} else {
			meta.Owner = arch.NoRID // owner already committed; lazy clear
		}
	}
	if !isWrite {
		return
	}

	if meta.Owner != r.rid {
		// First write to this line by this region (§4.6.1).
		e.initiateLPO(t, ts, r, line, meta)
		meta.Owner = r.rid
	}
	e.noteWrite(t, r, line, meta)
}

// initiateLPO allocates a log entry, pins the line, and sends the old
// line value toward the WPQ. All of a record's persist operations are
// routed via the record's header line so they are accepted in allocation
// order, keeping the record contiguous for recovery.
func (e *Engine) initiateLPO(t *sim.Thread, ts *threadState, r *regionState, line arch.LineAddr, meta *cache.Meta) {
	if r.rec == nil {
		lh := e.homeLH(r.rid)
		if !lh.HasSpaceFor(r.rid) {
			*e.m.Cells.LHWPQStalls++
			e.prof.Wait(t, obs.LHWPQFull, func() bool { return lh.HasSpaceFor(r.rid) })
		}
		header, end := e.m.AllocRecord(t, e.prof, ts.log, e.opt.OverflowPenalty)
		r.rec = &record{header: header, h: lh.Open(r.rid, header)}
		r.logEnd = end
	}

	rec := r.rec
	idx := rec.allocated
	rec.allocated++
	logLine := wal.EntryLine(rec.header, idx)
	if rec.allocated == wal.RecordEntries {
		// Last entry allocated: move the record to the LH-WPQ's closing
		// side so the next first-write opens a fresh record immediately.
		// The header line travels to the WPQ once all the record's LPOs
		// are accepted — an intra-persistence-domain move, never on the
		// thread's critical path.
		e.homeLH(r.rid).BeginClose(r.rid)
		r.rec = nil
	}

	// The record-allocation paths above can yield the thread (LH-WPQ
	// stall, log-overflow penalty), as can dependence capture before this
	// call — and while it is parked the line is resident but not yet
	// pinned, so another core's fills may evict it. Hardware sets the
	// LockBit in the same cycle the store completes; restore that
	// atomicity by re-fetching the line before pinning it. The refetch
	// latency is charged only after the pin so the line cannot slip out
	// again while the clock advances.
	var refetch uint64
	if !e.m.Caches.Present(line) {
		refetch, _ = e.m.Caches.AccessBlocking(t, ts.core, line, true)
	}
	meta.Lock()
	e.lpoInFlight++
	if refetch != 0 {
		t.Advance(refetch)
	}
	entry := e.m.Fabric.NewEntry(memdev.KindLPO, r.rid, logLine, line)
	e.m.Heap.ReadLineInto(line, entry.Payload) // old value, pre-store
	payload := entry.Payload                   // read again at acceptance, before any recycle
	*e.m.Cells.LPOsIssued++
	e.emit(trace.LPOIssue, r.rid, line, 0)
	e.m.Fabric.SubmitPersistOn(e.m.Fabric.ChannelFor(rec.header), entry, func(uint64) {
		e.lpoAccepted(r, rec, line, logLine, meta, payload)
	})
}

// lpoAccepted runs at WPQ acceptance: the LPO is complete (§4.1). The
// line's lock count drops, the LH-WPQ header gains the entry (with the
// entry's CRC, so recovery can detect a torn persist), DPO dropping
// fires, and — once no LPO for the line remains in flight — waiting DPOs
// for the line become eligible.
func (e *Engine) lpoAccepted(r *regionState, rec *record, line, logLine arch.LineAddr, meta *cache.Meta, payload []byte) {
	meta.Unlock()
	e.lpoInFlight--
	e.emit(trace.LPOAccept, r.rid, line, 0)
	if e.opt.DPODropping {
		e.m.Fabric.DropDPOFor(line)
	}

	rec.h.DataLines = append(rec.h.DataLines, line)
	rec.h.LogLines = append(rec.h.LogLines, logLine)
	rec.h.EntryCRCs = append(rec.h.EntryCRCs, wal.Checksum(payload))
	rec.h.PayloadCRC = wal.ChecksumUpdate(rec.h.PayloadCRC, payload)
	rec.accepted++
	if rec.accepted == wal.RecordEntries {
		// Every entry of the closing record is persistence-domain
		// resident: the header line moves to the WPQ (Figure 5b). The
		// LH-WPQ slot frees once the WPQ has accepted the header, so the
		// header contents never leave the persistence domain.
		lh := e.homeLH(r.rid)
		hdr := e.m.Fabric.NewEntry(memdev.KindLogHeader, r.rid, rec.header, rec.header)
		hdr.SetPayload(wal.EncodeHeaderChecked(r.rid, rec.h.DataLines, rec.h.PayloadCRC))
		headerAddr := rec.header
		e.m.Fabric.SubmitPersistOn(e.m.Fabric.ChannelFor(rec.header), hdr, func(uint64) {
			lh.FinishClose(headerAddr)
		})
	}

	e.lineUnlocked(line)
}

// lineUnlocked re-checks DPO eligibility for every region holding a CLPtr
// to line, now that an LPO for it completed. Regions are visited in RID order
// so that same-line DPO submissions — and therefore the PM image — stay
// deterministic (map iteration order is not).
func (e *Engine) lineUnlocked(line arch.LineAddr) {
	rids := make([]arch.RID, 0, len(e.regions))
	for rid, r := range e.regions {
		if r.cl != nil && r.cl.Slot(line) != nil {
			rids = append(rids, rid)
		}
	}
	sort.Slice(rids, func(i, j int) bool { return rids[i] < rids[j] })
	for _, rid := range rids {
		r := e.regions[rid]
		if r == nil || r.cl == nil {
			continue
		}
		if s := r.cl.Slot(line); s != nil {
			e.maybeIssueDPO(r, s)
		}
	}
}

// noteWrite tracks the write in the region's CL List entry (§4.6.2),
// stalling if all CLPtr slots are busy, and re-evaluates DPO initiation
// for every slot (the coalescing distance counter advanced). meta is the
// written line's metadata; it is cached in the CLPtr slot so DPO
// eligibility checks read the lock count directly.
func (e *Engine) noteWrite(t *sim.Thread, r *regionState, line arch.LineAddr, meta *cache.Meta) {
	cl := r.cl
	if cl.Slot(line) == nil && !r.clList.CanAddSlot(cl, line) {
		// All CLPtr slots busy: force the pending DPOs out (ignoring the
		// coalescing distance) and stall until one completes (§4.6.2).
		*e.m.Cells.CLStalls++
		for _, s := range append([]*CLSlot(nil), cl.Slots...) {
			s.Forced = true
			e.maybeIssueDPO(r, s)
		}
		e.prof.Wait(t, obs.CLPtr, func() bool { return r.clList.CanAddSlot(r.cl, line) })
	}
	for _, s := range cl.Slots {
		if s.Line != line {
			s.Age++
		}
	}
	s := r.clList.AddSlot(cl, line)
	s.Meta = meta
	if s.NeedIssue || s.Outstanding > 0 {
		// This write rides an already-pending DPO: a coalescing win.
		*e.m.Cells.DPOsCoalesce++
	}
	s.NeedIssue = true
	s.Age = 0
	for _, s := range append([]*CLSlot(nil), cl.Slots...) {
		e.maybeIssueDPO(r, s)
	}
}

// maybeIssueDPO initiates the DPO for slot s when permitted: every LPO
// logging the line has completed (lock count zero — the undo material
// for each value the DPO may persist is persistence-domain resident),
// no DPO is in flight, and either the coalescing distance has been
// reached or the region has ended (§4.6.2).
func (e *Engine) maybeIssueDPO(r *regionState, s *CLSlot) {
	if !s.NeedIssue || s.Outstanding > 0 {
		return
	}
	if s.Meta.Locked() {
		return
	}
	done := r.cl != nil && r.cl.Done
	if e.opt.Coalescing && !done && !s.Forced && s.Age < e.opt.CoalesceDistance {
		return
	}
	s.NeedIssue = false
	s.Outstanding++
	*e.m.Cells.DPOsIssued++
	e.emit(trace.DPOIssue, r.rid, s.Line, 0)
	entry := e.m.Fabric.NewEntry(memdev.KindDPO, r.rid, s.Line, s.Line)
	e.m.Heap.ReadLineInto(s.Line, entry.Payload)
	e.m.Fabric.SubmitPersist(entry, func(uint64) { e.dpoAccepted(r, s) })
}

// dpoAccepted runs at WPQ acceptance of a DPO: the slot clears — unless
// newer writes arrived while the DPO was in flight, in which case another
// DPO is due (the hardware would have re-added the pointer).
func (e *Engine) dpoAccepted(r *regionState, s *CLSlot) {
	s.Outstanding--
	e.emit(trace.DPOAccept, r.rid, s.Line, 0)
	if s.NeedIssue {
		e.maybeIssueDPO(r, s)
		return
	}
	e.m.Caches.MarkClean(s.Line)
	if r.cl == nil {
		return
	}
	r.cl.removeSlot(s.Line)
	if r.cl.Done && len(r.cl.Slots) == 0 {
		e.l1Done(r)
	}
}

// onLLCEvict handles a persistent line leaving the LLC (§5.3): spill an
// active OwnerRID to the DRAM buffer (noting it in the Bloom filter) and
// write dirty data back to PM.
func (e *Engine) onLLCEvict(info cache.EvictInfo) {
	meta := info.Meta
	if meta.Owner != arch.NoRID {
		if e.depOf(meta.Owner) != nil {
			e.ownerBuf[info.Line] = meta.Owner
			e.bloom.Add(info.Line)
			*e.m.Cells.OwnerIDSpills++
			e.emit(trace.OwnerSpill, meta.Owner, info.Line, 0)
		}
		meta.Owner = arch.NoRID // the tag leaves the chip with the line
	}
	if info.Dirty {
		entry := e.m.Fabric.NewEntry(memdev.KindEvict, arch.NoRID, info.Line, info.Line)
		e.m.Heap.ReadLineInto(info.Line, entry.Payload)
		e.m.Fabric.SubmitPersist(entry, nil)
	}
}

// onFill handles a persistent line entering the LLC from memory: if the
// Bloom filter says it might have a spilled OwnerRID, probe the DRAM
// buffer and reload the RID if its region is still uncommitted (§5.3).
func (e *Engine) onFill(line arch.LineAddr, meta *cache.Meta) {
	if !e.bloom.MayContain(line) {
		return
	}
	*e.m.Cells.BloomHits++
	rid, ok := e.ownerBuf[line]
	if !ok {
		return
	}
	delete(e.ownerBuf, line)
	if e.depOf(rid) != nil {
		meta.Owner = rid
		*e.m.Cells.OwnerIDReloads++
		e.emit(trace.OwnerReload, rid, line, 0)
	}
}
