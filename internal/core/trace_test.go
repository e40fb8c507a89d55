package core

import (
	"testing"

	"asap/internal/arch"
	"asap/internal/sim"
	"asap/internal/trace"
)

// TestTraceOrderingSingleRegion pins the protocol's event order for one
// region on one line: begin -> LPO issue -> LPO accept -> DPO issue ->
// DPO accept -> commit, with the region end somewhere after the LPO issue.
func TestTraceOrderingSingleRegion(t *testing.T) {
	m, e := testRig(DefaultOptions(), nil)
	buf := trace.NewBuffer(64)
	e.SetTrace(buf)
	addr := m.Heap.Alloc(64, true)
	run(m, e, func(th *sim.Thread) {
		e.Begin(th)
		storeU64(e, th, addr, 1)
		e.End(th)
	})

	rid := arch.MakeRID(0, 1)
	var order []trace.Kind
	for _, ev := range buf.Events() {
		if ev.RID == rid {
			order = append(order, ev.Kind)
		}
	}
	pos := func(k trace.Kind) int {
		for i, got := range order {
			if got == k {
				return i
			}
		}
		t.Fatalf("event %v missing from trace: %v", k, order)
		return -1
	}
	if !(pos(trace.RegionBegin) < pos(trace.LPOIssue) &&
		pos(trace.LPOIssue) < pos(trace.LPOAccept) &&
		pos(trace.LPOAccept) < pos(trace.DPOIssue) &&
		pos(trace.DPOIssue) < pos(trace.DPOAccept) &&
		pos(trace.DPOAccept) < pos(trace.RegionCommit)) {
		t.Fatalf("protocol order violated: %v", order)
	}
	if pos(trace.RegionEnd) > pos(trace.RegionCommit) {
		t.Fatalf("asynchronous commit: End must precede commit: %v", order)
	}
}

func TestTraceCapturesDependences(t *testing.T) {
	m, e := testRig(DefaultOptions(), nil)
	buf := trace.NewBuffer(256)
	e.SetTrace(buf)
	a := m.Heap.Alloc(64, true)
	run(m, e, func(th *sim.Thread) {
		for i := 0; i < 3; i++ {
			e.Begin(th)
			storeU64(e, th, a, uint64(i))
			e.End(th)
		}
	})
	deps := 0
	for _, d := range buf.Events() {
		if d.Kind != trace.DepAdd {
			continue
		}
		deps++
		if arch.RID(d.Aux) >= d.RID {
			t.Fatalf("dependence must point backwards: %v", d)
		}
	}
	if deps == 0 {
		t.Skip("regions committed before successors began; no control deps captured")
	}
}

func TestTraceOffByDefault(t *testing.T) {
	m, e := testRig(DefaultOptions(), nil)
	if e.tr != nil {
		t.Fatal("trace attached by default")
	}
	addr := m.Heap.Alloc(64, true)
	run(m, e, func(th *sim.Thread) {
		e.Begin(th)
		storeU64(e, th, addr, 1)
		e.End(th)
	})
	// No panic without a buffer is the assertion.
}
