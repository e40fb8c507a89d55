// Package schemes implements the paper's baselines behind the
// machine.Scheme interface: NP (no persistence), SW (software undo
// logging, §6.3), SW-DPOOnly (the Figure 1 middle bar), HWUndo
// (Proteus-style synchronous-commit hardware undo logging), HWRedo (redo
// logging with synchronous LPOs and asynchronous DPOs) and ASAP-Redo
// (asynchronous commit over redo logging, §3). New builds any of them,
// or the ASAP engine, by name.
//
// Every logging baseline is write-ahead logging with the same region
// shape; the schemes differ only in when LPOs and DPOs start and when a
// region commits. What they share lives here: the embedded base, region
// nesting and accounting, and the log cursor over machine.AllocRecord.
// Stores go through machine.Store with a per-line hook.
package schemes

import (
	"fmt"
	"sort"

	"asap/internal/arch"
	"asap/internal/cache"
	"asap/internal/core"
	"asap/internal/machine"
	"asap/internal/memdev"
	"asap/internal/obs"
	"asap/internal/sim"
	"asap/internal/wal"
)

// The baselines' fixed tuning.
const (
	// window bounds the outstanding persist operations per thread (per
	// region under ASAP-Redo): the baselines get on-chip tracking
	// resources of a size similar to ASAP's (§6.3), not unbounded ones.
	window = 64
	// redirectPenalty is the extra latency of a read redirected to the
	// redo log.
	redirectPenalty = 30
	// truncateDelay is how long after a region's synchronous commit
	// HWUndo's log-truncation hardware gets around to freeing its log and
	// dropping its queued LPOs (Proteus truncates lazily, off the
	// critical path).
	truncateDelay = 500
	// swInstrOverhead models the extra instructions of software logging
	// per persist operation (bookkeeping, address computation).
	swInstrOverhead = 12
	// overflowPenalty is the log-overflow exception cost in cycles.
	overflowPenalty = 2000
	// logBytes is the initial per-thread log buffer size.
	logBytes = 256 << 10
)

// Names lists every scheme New builds, in the order tools print them.
func Names() []string {
	return []string{"NP", "SW", "SW-DPOOnly", "HWUndo", "HWRedo", "ASAP", "ASAP-Redo"}
}

// New builds the named scheme on m. asapOpts configures ASAP; nil or an
// unsized one (zero CLListEntries) selects core.DefaultOptions. Other
// schemes ignore it.
func New(name string, m *machine.Machine, asapOpts *core.Options) (machine.Scheme, error) {
	switch name {
	case "NP":
		return NewNP(m), nil
	case "SW", "SW-DPOOnly":
		return NewSW(m, name == "SW-DPOOnly"), nil
	case "HWUndo":
		return NewHWUndo(m), nil
	case "HWRedo":
		return NewHWRedo(m), nil
	case "ASAP-Redo":
		return NewASAPRedo(m), nil
	case "ASAP":
		opt := core.DefaultOptions()
		if asapOpts != nil && asapOpts.CLListEntries != 0 {
			opt = *asapOpts
		}
		return core.NewEngine(m, opt), nil
	}
	return nil, fmt.Errorf("unknown scheme %q", name)
}

// base is what every baseline embeds: the machine, the stall profiler,
// and the Fence, DrainBarrier and Load of a scheme that leaves nothing
// outstanding after End.
type base struct {
	m    *machine.Machine
	prof *obs.Profiler
}

// SetProfiler attaches a stall-attribution profiler (nil detaches). The
// machine's caches get the same profiler for pinned-set stalls.
func (b *base) SetProfiler(p *obs.Profiler) {
	b.prof = p
	b.m.Caches.SetProfiler(p)
}

// Fence implements machine.Scheme: a synchronous commit leaves nothing
// to wait for after End.
func (b *base) Fence(t *sim.Thread) { *b.m.Cells.Fences++ }

// DrainBarrier implements machine.Scheme.
func (b *base) DrainBarrier(t *sim.Thread) { b.prof.Wait(t, obs.Drain, b.m.Fabric.Quiesced) }

// Load implements machine.Scheme.
func (b *base) Load(t *sim.Thread, addr uint64, buf []byte) {
	b.m.Access(t, addr, len(buf), false, nil)
	b.m.Heap.Read(addr, buf)
}

// evictWriteback is the dirty-line LLC eviction path for schemes without
// special eviction handling.
func (b *base) evictWriteback(info cache.EvictInfo) {
	if !info.Dirty {
		return
	}
	e := b.m.Fabric.NewEntry(memdev.KindEvict, arch.NoRID, info.Line, info.Line)
	b.m.Heap.ReadLineInto(info.Line, e.Payload)
	b.m.Fabric.SubmitPersist(e, nil)
}

// nesting is one thread's region nesting: nested regions flatten into
// the outermost one, whose latency is accounted when it ends.
type nesting struct {
	nest    int
	beginAt uint64
}

// begin opens a region and reports whether it is the outermost one,
// which it counts begun. A nested begin costs one cycle.
func (b *base) begin(t *sim.Thread, n *nesting) bool {
	n.nest++
	if n.nest > 1 {
		t.Advance(1)
		return false
	}
	n.beginAt = t.Now()
	*b.m.Cells.RegionsBegun++
	return true
}

// end closes a region and reports whether it was the outermost one. A
// nested end costs one cycle.
func (b *base) end(t *sim.Thread, n *nesting) bool {
	n.nest--
	if n.nest > 0 {
		t.Advance(1)
		return false
	}
	return true
}

// account records the outermost region's latency up to now and, when
// committed, counts it committed.
func (b *base) account(t *sim.Thread, n *nesting, committed bool) {
	*b.m.Cells.RegionCycles += int64(t.Now() - n.beginAt)
	b.m.Cells.RegionLatency.Observe(t.Now() - n.beginAt)
	if committed {
		*b.m.Cells.RegionsCommitted++
	}
}

// logCursor is a position in a thread's log: the open record, how many
// of its entries are used, and the free point after it.
type logCursor struct {
	log     *wal.ThreadLog
	rec     arch.LineAddr // open record's header line; 0 when none is open
	recUsed int
	logEnd  machine.LogEnd
}

// openRecord allocates a fresh record; t is nil in event context.
func (b *base) openRecord(t *sim.Thread, c *logCursor) {
	c.rec, c.logEnd = b.m.AllocRecord(t, b.prof, c.log, overflowPenalty)
	c.recUsed = 0
}

// nextEntry returns the next log entry line, opening a record when none
// is open or the open one is full.
func (b *base) nextEntry(t *sim.Thread, c *logCursor) arch.LineAddr {
	if c.recUsed == wal.RecordEntries || c.rec == 0 {
		b.openRecord(t, c)
	}
	c.recUsed++
	return wal.EntryLine(c.rec, c.recUsed-1)
}

// sortedLines returns the map's keys in address order: flush loops iterate
// deterministically so queue admission order (and thus timing) is stable
// run to run.
func sortedLines(m map[arch.LineAddr]bool) []arch.LineAddr {
	out := make([]arch.LineAddr, 0, len(m))
	for l := range m {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// firstLines returns at most one record's worth of m's lines, in address
// order: the data lines a commit header names.
func firstLines(m map[arch.LineAddr]bool) []arch.LineAddr {
	lines := sortedLines(m)
	if len(lines) > wal.RecordEntries {
		lines = lines[:wal.RecordEntries]
	}
	return lines
}
