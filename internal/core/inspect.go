package core

import (
	"fmt"
	"sort"
	"strings"

	"asap/internal/arch"
)

// This file is the engine's read-only inspection surface: everything the
// invariant engine (internal/invariant) and the forward-progress watchdog
// need to validate protocol state at step granularity, without reaching
// into unexported fields or perturbing the simulation. Every accessor is a
// pure read of current state.

// RegionInspect is a read-only view of one live (uncommitted) region.
type RegionInspect struct {
	RID    arch.RID
	Thread int
	// Ended reports that asap_end ran: the region is in the asynchronous
	// commit window.
	Ended bool
	// CLResident reports the region still holds a CL List entry (not all
	// DPOs have completed); CLSlots is its current CLPtr occupancy.
	CLResident bool
	CLSlots    int
	// OpenRecord reports a log record is still filling; OpenHeaderAddr is
	// that record's header line (the LH-WPQ open-entry key).
	OpenRecord     bool
	OpenHeaderAddr arch.LineAddr
	// LogEnd is the absolute log offset after the region's last allocated
	// record; zero if the region never logged. LogEpoch is the thread
	// log's Grow count when LogEnd was recorded: offsets are only
	// comparable against the live head/tail while the epoch matches.
	LogEnd   uint64
	LogEpoch int
}

// LiveRegions returns a snapshot view of every uncommitted region, in RID
// order.
func (e *Engine) LiveRegions() []RegionInspect {
	out := make([]RegionInspect, 0, len(e.regions))
	for _, rid := range e.UncommittedRIDs() {
		r := e.regions[rid]
		ri := RegionInspect{
			RID:        rid,
			Thread:     r.ts.tid,
			Ended:      r.endedAt > 0,
			CLResident: r.cl != nil,
			LogEnd:     r.logEnd.Off,
			LogEpoch:   r.logEnd.Epoch,
		}
		if r.cl != nil {
			ri.CLSlots = len(r.cl.Slots)
		}
		if r.rec != nil {
			ri.OpenRecord = true
			ri.OpenHeaderAddr = r.rec.header
		}
		out = append(out, ri)
	}
	return out
}

// DepGraphLive returns the live dependence graph: for every uncommitted
// region with a Dependence List entry, the regions it still depends on
// (sorted). Regions with no outstanding dependencies map to an empty
// slice, so the key set is exactly the live Dependence List population.
func (e *Engine) DepGraphLive() map[arch.RID][]arch.RID {
	g := make(map[arch.RID][]arch.RID)
	for _, dl := range e.dep {
		for _, entry := range dl.Entries() {
			deps := make([]arch.RID, 0, len(entry.Deps))
			for d := range entry.Deps {
				deps = append(deps, d)
			}
			sort.Slice(deps, func(i, j int) bool { return deps[i] < deps[j] })
			g[entry.RID] = deps
		}
	}
	return g
}

// DepGraphString renders the live dependence graph one region per line in
// RID order — the watchdog's stall-snapshot payload.
func (e *Engine) DepGraphString() string {
	g := e.DepGraphLive()
	rids := make([]arch.RID, 0, len(g))
	for rid := range g {
		rids = append(rids, rid)
	}
	sort.Slice(rids, func(i, j int) bool { return rids[i] < rids[j] })
	var b strings.Builder
	for _, rid := range rids {
		state := "open"
		if r := e.regions[rid]; r != nil && r.endedAt > 0 {
			state = "ended"
		}
		fmt.Fprintf(&b, "%s [%s]", rid, state)
		if deps := g[rid]; len(deps) > 0 {
			parts := make([]string, len(deps))
			for i, d := range deps {
				parts[i] = d.String()
			}
			fmt.Fprintf(&b, " <- %s", strings.Join(parts, " "))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// LPOsInFlight returns the number of LPOs between initiation and WPQ
// acceptance: the value the sum of per-line lock pins must equal.
func (e *Engine) LPOsInFlight() int { return e.lpoInFlight }

// OwnerSpills calls fn for every (line, owner) pair in the DRAM OwnerRID
// buffer, in ascending line order.
func (e *Engine) OwnerSpills(fn func(line arch.LineAddr, owner arch.RID)) {
	lines := make([]arch.LineAddr, 0, len(e.ownerBuf))
	for line := range e.ownerBuf {
		lines = append(lines, line)
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	for _, line := range lines {
		fn(line, e.ownerBuf[line])
	}
}

// BloomMayContain exposes the §5.3 filter's answer for line: false means
// the filter guarantees no spilled OwnerRID exists (a false negative here
// would be a missed dependence — the bug the invariant engine hunts).
func (e *Engine) BloomMayContain(line arch.LineAddr) bool {
	return e.bloom.MayContain(line)
}

// CLLists returns the per-core Modified Cache Line Lists (read-only).
func (e *Engine) CLLists() []*CLList { return e.cl }

// DepLists returns the per-channel Dependence Lists (read-only).
func (e *Engine) DepLists() []*DependenceList { return e.dep }

// ThreadIDs returns the asap_init'ed thread IDs, ascending.
func (e *Engine) ThreadIDs() []int {
	out := make([]int, 0, len(e.threads))
	for tid := range e.threads {
		out = append(out, tid)
	}
	sort.Ints(out)
	return out
}

// LogExtentOf returns thread tid's current log geometry (the same shape a
// crash snapshot records); ok is false for unknown threads.
func (e *Engine) LogExtentOf(tid int) (ext LogExtent, ok bool) {
	ts := e.threads[tid]
	if ts == nil {
		return LogExtent{}, false
	}
	return LogExtent{
		Thread: tid,
		Base:   ts.log.Base(),
		Size:   ts.log.Size(),
		Head:   ts.log.Head(),
		Tail:   ts.log.Tail(),
	}, true
}

// LogEpoch returns thread tid's log Grow count: RegionInspect.LogEpoch
// values match the current buffer's offsets only while equal to this.
func (e *Engine) LogEpoch(tid int) int {
	if ts := e.threads[tid]; ts != nil {
		return ts.log.Overflows()
	}
	return 0
}
