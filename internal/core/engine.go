// Package core implements the paper's contribution: the ASAP engine. It
// executes the atomic-region protocol of §4 — hardware-initiated LPOs and
// DPOs, the Modified Cache Line List, the Dependence List, asynchronous
// commit with control- and data-dependence enforcement — plus the §5
// machinery: traffic optimizations, asap_fence, OwnerRID spill/reload
// across LLC evictions, and the log lifecycle through the LH-WPQ.
package core

import (
	"sort"

	"asap/internal/arch"
	"asap/internal/machine"
	"asap/internal/memdev"
	"asap/internal/obs"
	"asap/internal/sim"
	"asap/internal/trace"
	"asap/internal/wal"
)

// record tracks one in-flight log record (Figure 5a) while its entries are
// allocated and accepted. h is the record's LH-WPQ header, which
// accumulates the accepted entries.
type record struct {
	header    arch.LineAddr
	h         *memdev.LogHeader
	allocated int
	accepted  int
}

// regionState is the engine's view of one atomic region across the CL
// List, Dependence List and log.
type regionState struct {
	rid arch.RID
	ts  *threadState

	clList *CLList
	cl     *CLEntry // nil once all DPOs completed (Done@L1)
	dList  *DependenceList
	dep    *DepEntry

	rec     *record        // open (still filling) log record, if any
	logEnd  machine.LogEnd // free point after the region's last record
	endedAt uint64         // when asap_end ran, for the commit-lag histogram

	// frees holds asap_free requests made inside the region; the memory
	// recycles only at commit, when the free is durable.
	frees []uint64

	committed bool
}

// threadState is the per-thread hardware state: the Thread State Registers
// of §4.4 plus the engine's bookkeeping.
type threadState struct {
	tid  int
	core int
	log  *wal.ThreadLog

	local uint64 // CurRID counter
	nest  int    // NestDepth

	cur     *regionState // currently executing region
	last    *regionState // latest region (committed or not), for fences
	beginAt uint64       // region start time for latency accounting
}

// Engine is the ASAP hardware, one instance per machine.
type Engine struct {
	m   *machine.Machine
	opt Options

	cl      []*CLList         // per core
	dep     []*DependenceList // per channel
	threads map[int]*threadState
	regions map[arch.RID]*regionState

	ownerBuf map[arch.LineAddr]arch.RID // §5.3 DRAM OwnerRID buffer
	bloom    *bloom

	// lpoInFlight counts LPOs between initiation and WPQ acceptance; it
	// must equal the sum of cache.Meta.Locks at every step (the invariant
	// engine's lock-conservation check).
	lpoInFlight int

	// CommittedAt records each region's commit time; Edges records every
	// captured dependence (dep, region). Both feed the ordering-invariant
	// tests and the recovery DAG checks.
	CommittedAt map[arch.RID]uint64
	Edges       [][2]arch.RID

	// tr, when non-nil, receives every protocol event.
	tr *trace.Buffer

	// prof, when non-nil, attributes structure-wait cycles to buckets.
	prof *obs.Profiler
}

// SetTrace attaches an event buffer (nil detaches).
func (e *Engine) SetTrace(b *trace.Buffer) { e.tr = b }

// SetProfiler attaches a stall-attribution profiler (nil detaches). The
// machine's caches get the same profiler for pinned-set stalls.
func (e *Engine) SetProfiler(p *obs.Profiler) {
	e.prof = p
	e.m.Caches.SetProfiler(p)
}

// Trace returns the attached event buffer, if any.
func (e *Engine) Trace() *trace.Buffer { return e.tr }

// emit records a protocol event when tracing is on.
func (e *Engine) emit(kind trace.Kind, rid arch.RID, line arch.LineAddr, aux uint64) {
	if e.tr != nil {
		e.tr.Emit(trace.Event{At: e.m.K.Now(), Kind: kind, RID: rid, Line: line, Aux: aux})
	}
}

var _ machine.Scheme = (*Engine)(nil)

// NewEngine attaches an ASAP engine to m and wires the cache hooks.
func NewEngine(m *machine.Machine, opt Options) *Engine {
	e := &Engine{
		m:           m,
		opt:         opt,
		threads:     make(map[int]*threadState),
		regions:     make(map[arch.RID]*regionState),
		ownerBuf:    make(map[arch.LineAddr]arch.RID),
		bloom:       newBloom(opt.BloomBits),
		CommittedAt: make(map[arch.RID]uint64),
	}
	for i := 0; i < m.Cfg.Cores; i++ {
		e.cl = append(e.cl, NewCLList(opt.CLListEntries, opt.CLPtrSlots))
	}
	for range m.Fabric.Channels() {
		e.dep = append(e.dep, NewDependenceList(opt.DepListEntries, opt.DepSlots))
	}
	m.Caches.SetEvictHook(e.onLLCEvict)
	m.Caches.SetFillHook(e.onFill)
	return e
}

// Name implements machine.Scheme.
func (e *Engine) Name() string { return "ASAP" }

// Machine returns the underlying machine.
func (e *Engine) Machine() *machine.Machine { return e.m }

// Options returns the engine's options.
func (e *Engine) Options() Options { return e.opt }

// depListOf returns the Dependence List hosting region r (§5.6: selected
// by the LSBs of the LocalRID).
func (e *Engine) depListOf(r arch.RID) *DependenceList {
	return e.dep[e.m.Fabric.HomeChannel(r).ID()]
}

// depOf returns r's Dependence List entry, or nil once committed.
func (e *Engine) depOf(r arch.RID) *DepEntry { return e.depListOf(r).Get(r) }

// homeLH returns the LH-WPQ hosting region r's log headers.
func (e *Engine) homeLH(r arch.RID) *memdev.LHWPQ {
	return e.m.Fabric.HomeChannel(r).LH()
}

// InitThread implements asap_init: allocate the thread's log buffer and
// initialize its Thread State Registers.
func (e *Engine) InitThread(t *sim.Thread) {
	ts := &threadState{
		tid:  t.ID(),
		core: e.m.CoreOf(t),
		log:  wal.NewThreadLog(e.m.Heap, e.opt.LogBufferBytes),
	}
	e.threads[t.ID()] = ts
	t.Advance(200) // buffer allocation and register setup
}

func (e *Engine) state(t *sim.Thread) *threadState {
	ts := e.threads[t.ID()]
	if ts == nil {
		panic("core: thread used before InitThread: " + t.Name())
	}
	return ts
}

// Begin implements asap_begin (§4.5). Nested regions are flattened.
func (e *Engine) Begin(t *sim.Thread) {
	ts := e.state(t)
	ts.nest++
	if ts.nest > 1 {
		t.Advance(1)
		return
	}

	ts.local++
	rid := arch.MakeRID(ts.tid, ts.local)
	clList := e.cl[ts.core]
	dList := e.depListOf(rid)
	e.prof.Wait(t, obs.BeginWait, func() bool { return clList.HasSpace() && dList.HasSpace() })

	r := &regionState{rid: rid, ts: ts, clList: clList, dList: dList}
	r.cl = clList.Add(rid)
	r.dep = dList.Add(rid)
	e.regions[rid] = r

	// Control dependence on the thread's previous region, if it is still
	// in the Dependence List (uncommitted).
	if prev := ts.last; prev != nil && !prev.committed {
		e.addDep(t, r, prev.rid)
	}

	ts.cur = r
	ts.last = r
	ts.beginAt = t.Now()
	*e.m.Cells.RegionsBegun++
	e.emit(trace.RegionBegin, rid, 0, 0)
	t.Advance(e.opt.BeginCost)
}

// End implements asap_end (§4.7): mark the region Done at the L1 and let
// execution proceed; the commit happens asynchronously.
func (e *Engine) End(t *sim.Thread) {
	ts := e.state(t)
	if ts.nest == 0 {
		panic("core: End without Begin on " + t.Name())
	}
	ts.nest--
	if ts.nest > 0 {
		t.Advance(1)
		return
	}
	r := ts.cur
	ts.cur = nil
	r.cl.Done = true
	for _, s := range append([]*CLSlot(nil), r.cl.Slots...) {
		e.maybeIssueDPO(r, s)
	}
	if len(r.cl.Slots) == 0 {
		e.l1Done(r)
	}
	t.Advance(e.opt.EndCost)
	r.endedAt = t.Now()
	if e.opt.UnsafeEarlyLogFree {
		// Seeded negative control: frees the undo log before the region's
		// dependence closure has committed, violating the §4.7 commit rule.
		r.logEnd.Free(r.ts.log)
	}
	e.emit(trace.RegionEnd, r.rid, 0, 0)
	*e.m.Cells.RegionCycles += int64(t.Now() - ts.beginAt)
	e.m.Cells.RegionLatency.Observe(t.Now() - ts.beginAt)
}

// Fence implements asap_fence (§5.2): block until the thread's latest
// region has committed — and with it, transitively, everything it depends
// on.
func (e *Engine) Fence(t *sim.Thread) {
	ts := e.state(t)
	*e.m.Cells.Fences++
	last := ts.last
	if last == nil {
		return
	}
	start := t.Now()
	e.prof.Wait(t, obs.FenceWait, func() bool { return last.committed })
	*e.m.Cells.FenceCycles += int64(t.Now() - start)
}

// DrainBarrier blocks until every region has committed and the memory
// fabric is idle: the end-of-run accounting point.
func (e *Engine) DrainBarrier(t *sim.Thread) {
	e.prof.Wait(t, obs.Drain, func() bool {
		return len(e.regions) == 0 && e.m.Fabric.Quiesced()
	})
}

// ActiveRegions returns the number of uncommitted regions.
func (e *Engine) ActiveRegions() int { return len(e.regions) }

// DepEntriesLive returns the total live Dependence List entries across all
// channels (occupancy gauge).
func (e *Engine) DepEntriesLive() int {
	n := 0
	for _, dl := range e.dep {
		n += dl.Len()
	}
	return n
}

// CLEntriesLive returns the total live CL List entries across all cores
// (occupancy gauge).
func (e *Engine) CLEntriesLive() int {
	n := 0
	for _, cl := range e.cl {
		n += cl.Len()
	}
	return n
}

// LogBytesLive returns the total live undo-log bytes across all threads
// (occupancy gauge).
func (e *Engine) LogBytesLive() uint64 {
	var n uint64
	for _, ts := range e.threads {
		n += ts.log.Live()
	}
	return n
}

// CommitBacklog returns how many regions have run asap_end but not yet
// committed: the asynchrony window's live population.
func (e *Engine) CommitBacklog() int {
	n := 0
	for _, r := range e.regions {
		if r.endedAt > 0 {
			n++
		}
	}
	return n
}

// addDep records that region r depends on dep (data or control), stalling
// the thread if r's Dep slots are full (§4.6.3).
func (e *Engine) addDep(t *sim.Thread, r *regionState, dep arch.RID) {
	if r.dep.HasDep(dep) {
		return
	}
	if e.depOf(dep) == nil {
		return // already committed
	}
	if !r.dList.CanAddDep(r.dep, dep) {
		*e.m.Cells.DepStalls++
		e.prof.Wait(t, obs.DepSlot, func() bool {
			return e.depOf(dep) == nil || r.dList.CanAddDep(r.dep, dep)
		})
		if e.depOf(dep) == nil {
			return
		}
	}
	r.dList.AddDep(r.dep, dep)
	e.Edges = append(e.Edges, [2]arch.RID{dep, r.rid})
	e.emit(trace.DepAdd, r.rid, 0, uint64(dep))
	*e.m.Cells.DepEdges++
}

// l1Done is transition ③ of Figure 4: all the region's DPOs completed and
// no more writes are coming, so the CL List entry is freed and the
// Dependence List entry marked Done.
func (e *Engine) l1Done(r *regionState) {
	r.clList.Remove(r.rid)
	r.cl = nil
	r.dep.Done = true
	e.maybeCommit(r)
}

// maybeCommit checks transition ④ of Figure 4 and commits r if every
// dependence has been met, cascading to dependents via the commit
// broadcast.
func (e *Engine) maybeCommit(r *regionState) {
	work := []*regionState{r}
	for len(work) > 0 {
		cur := work[len(work)-1]
		work = work[:len(work)-1]
		if cur.committed || !cur.dep.Done || len(cur.dep.Deps) > 0 {
			continue
		}
		work = append(work, e.commit(cur)...)
	}
}

// DeferFree implements machine.DeferredFreer: a free inside an atomic
// region takes effect at commit; outside a region it is immediate.
func (e *Engine) DeferFree(t *sim.Thread, addr uint64) {
	ts := e.state(t)
	if ts.cur != nil {
		ts.cur.frees = append(ts.cur.frees, addr)
		return
	}
	e.m.Heap.Free(addr)
}

// commit performs the ④ actions for one region and returns the dependents
// that may now be able to commit.
func (e *Engine) commit(r *regionState) []*regionState {
	r.committed = true
	r.logEnd.Free(r.ts.log)
	for _, addr := range r.frees {
		e.m.Heap.Free(addr)
	}
	r.frees = nil
	e.homeLH(r.rid).Release(r.rid)
	if e.opt.LPODropping {
		e.m.Fabric.DropRegionOps(r.rid)
	}
	r.dList.Remove(r.rid)
	delete(e.regions, r.rid)
	*e.m.Cells.RegionsCommitted++
	e.emit(trace.RegionCommit, r.rid, 0, 0)
	e.CommittedAt[r.rid] = e.m.K.Now()
	if now := e.m.K.Now(); r.endedAt > 0 && now >= r.endedAt {
		e.m.Cells.CommitLag.Observe(now - r.endedAt)
	}

	// Broadcast completion to every Dependence List (§4.8), visiting
	// dependents in RID order so cascaded commits are deterministic.
	var unblocked []*regionState
	for _, dl := range e.dep {
		for _, entry := range dl.Entries() {
			if entry.HasDep(r.rid) {
				entry.ClearDep(r.rid)
				if other := e.regions[entry.RID]; other != nil {
					unblocked = append(unblocked, other)
				}
			}
		}
	}
	sort.Slice(unblocked, func(i, j int) bool { return unblocked[i].rid < unblocked[j].rid })

	// With no uncommitted regions left anywhere, spilled OwnerRIDs are
	// dead and the non-counting Bloom filter can be reset (§5.3).
	if len(e.regions) == 0 {
		e.bloom.Clear()
		e.ownerBuf = make(map[arch.LineAddr]arch.RID)
		*e.m.Cells.BloomClears++
	}
	return unblocked
}
