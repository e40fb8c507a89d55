package core

import (
	"asap/internal/arch"
	"asap/internal/obs"
	"asap/internal/sim"
	"asap/internal/trace"
)

// Migrate context-switches thread t onto another core (§5.7): the Thread
// State Registers travel with the process, and the suspended thread's CL
// List entry is cleared after the persist operations of each CLPtr slot
// complete — the entry belongs to the old core's L1. Once rescheduled, the
// thread safely continues any remaining operations of its InProgress
// region from a fresh CL List entry on the new core.
func (e *Engine) Migrate(t *sim.Thread, core int) {
	ts := e.state(t)
	if core == ts.core {
		return
	}

	r := ts.cur
	if r != nil && r.cl != nil {
		// Drain the old core's CL List entry: force the pending DPOs out
		// and wait for the slots to clear.
		for _, s := range append([]*CLSlot(nil), r.cl.Slots...) {
			s.Forced = true
			e.maybeIssueDPO(r, s)
		}
		e.prof.Wait(t, obs.CLPtr, func() bool { return r.cl == nil || len(r.cl.Slots) == 0 })
		if r.cl != nil {
			r.clList.Remove(r.rid)
			r.cl = nil
		}
	}

	// OS context-switch cost plus the register save/restore.
	t.Advance(1000)
	e.m.SetCore(t, core)
	ts.core = core
	e.emit(trace.Migrate, arch.MakeRID(ts.tid, max(ts.local, 1)), 0, uint64(core))

	if r != nil && !r.committed {
		// Re-home the InProgress region on the new core's CL List.
		newList := e.cl[core]
		e.prof.Wait(t, obs.BeginWait, newList.HasSpace)
		r.clList = newList
		r.cl = newList.Add(r.rid)
		r.cl.Done = false
	}
}
