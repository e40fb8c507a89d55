package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"asap/internal/sim"
)

// TestBucketSumsExact drives the exactness invariant through both clock
// paths: Advance (thread moves its own clock) and the kernel's blocked-
// thread catch-up (an event unblocks a waiter whose clock lags). Every
// cycle must land in exactly one bucket.
func TestBucketSumsExact(t *testing.T) {
	k := sim.NewKernel()
	p := NewProfiler()
	k.SetObserver(&Session{Prof: p})

	ready := false
	k.Schedule(50, func() { ready = true })
	k.Spawn("waiter", func(th *sim.Thread) {
		th.Advance(10)
		p.Enter(th, FenceWait)
		th.WaitUntil(func() bool { return ready })
		p.Exit(th)
		th.Advance(5)
	})
	k.Spawn("worker", func(th *sim.Thread) {
		th.Advance(30)
	})
	k.MustRun()

	if err := p.Check(); err != nil {
		t.Fatal(err)
	}
	tps := p.Threads()
	if len(tps) != 2 || tps[0].Name != "waiter" || tps[1].Name != "worker" {
		t.Fatalf("Threads() = %v, want [waiter worker]", tps)
	}
	w := tps[0]
	// 10 compute, then blocked 10->50 charged to FenceWait, then 5 compute.
	if w.Cycles[Compute] != 15 || w.Cycles[FenceWait] != 40 || w.Total() != 55 {
		t.Fatalf("waiter: compute=%d fence=%d total=%d, want 15/40/55",
			w.Cycles[Compute], w.Cycles[FenceWait], w.Total())
	}
	if tps[1].Cycles[Compute] != 30 || tps[1].Total() != 30 {
		t.Fatalf("worker: compute=%d total=%d, want 30/30",
			tps[1].Cycles[Compute], tps[1].Total())
	}
	per, total := p.Totals()
	var sum uint64
	for _, c := range per {
		sum += c
	}
	if sum != total || total != 85 {
		t.Fatalf("Totals: sum=%d total=%d, want 85/85", sum, total)
	}
}

// TestNestedBuckets: cycles inside a nested Enter are charged to the
// inner bucket, not the outer.
func TestNestedBuckets(t *testing.T) {
	k := sim.NewKernel()
	p := NewProfiler()
	k.SetObserver(&Session{Prof: p})
	k.Spawn("n", func(th *sim.Thread) {
		p.Enter(th, FenceWait)
		th.Advance(10)
		p.Enter(th, DepSlot)
		th.Advance(7)
		p.Exit(th)
		th.Advance(3)
		p.Exit(th)
		th.Advance(2)
	})
	k.MustRun()

	if err := p.Check(); err != nil {
		t.Fatal(err)
	}
	tp := p.Threads()[0]
	if tp.Cycles[FenceWait] != 13 || tp.Cycles[DepSlot] != 7 || tp.Cycles[Compute] != 2 {
		t.Fatalf("fence=%d dep=%d compute=%d, want 13/7/2",
			tp.Cycles[FenceWait], tp.Cycles[DepSlot], tp.Cycles[Compute])
	}
}

// TestLockContentionChargedToLockWait: the kernel reports contended mutex
// waits through LockBegin/LockEnd, which must land in the LockWait bucket.
func TestLockContentionChargedToLockWait(t *testing.T) {
	k := sim.NewKernel()
	p := NewProfiler()
	k.SetObserver(&Session{Prof: p})
	var mu sim.Mutex
	k.Spawn("first", func(th *sim.Thread) {
		mu.Lock(th)
		th.Advance(20)
		mu.Unlock(th)
	})
	k.Spawn("second", func(th *sim.Thread) {
		mu.Lock(th)
		th.Advance(1)
		mu.Unlock(th)
	})
	k.MustRun()

	if err := p.Check(); err != nil {
		t.Fatal(err)
	}
	second := p.Threads()[1]
	if second.Cycles[LockWait] == 0 {
		t.Fatalf("contended thread has no lock-wait cycles: %+v", second.Cycles)
	}
	if p.Threads()[0].Cycles[LockWait] != 0 {
		t.Fatal("uncontended holder charged lock-wait cycles")
	}
}

// TestNilProfilerSafe: every method must be a no-op on a nil receiver —
// that is the zero-cost-disabled contract components rely on.
func TestNilProfilerSafe(t *testing.T) {
	var p *Profiler
	p.ThreadStart(nil)
	p.ClockAdvance(nil, 5)
	p.Enter(nil, FenceWait)
	p.Exit(nil)
	p.LockBegin(nil)
	p.LockEnd(nil)
	p.Tick(7)
	p.EnableSpans(10)
	if p.Threads() != nil {
		t.Fatal("nil profiler Threads != nil")
	}
	if s, d := p.Spans(); s != nil || d != 0 {
		t.Fatal("nil profiler Spans != nil")
	}
	if _, total := p.Totals(); total != 0 {
		t.Fatal("nil profiler Totals != 0")
	}
	if p.Check() != nil {
		t.Fatal("nil profiler Check != nil")
	}
	if p.String() != "" {
		t.Fatal("nil profiler String != empty")
	}
}

// TestExitWithoutEnterPanics: an unbalanced Exit is a protocol-bracketing
// bug worth crashing on.
func TestExitWithoutEnterPanics(t *testing.T) {
	k := sim.NewKernel()
	p := NewProfiler()
	k.SetObserver(&Session{Prof: p})
	var captured *sim.Thread
	k.Spawn("x", func(th *sim.Thread) { captured = th; th.Advance(1) })
	k.MustRun()

	defer func() {
		if r := recover(); r == nil {
			t.Fatal("Exit without Enter did not panic")
		} else if !strings.Contains(r.(string), "Exit without Enter") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	p.Exit(captured)
}

// TestCheckCatchesViolations: Check must flag an unmatched Enter and a
// bucket sum that disagrees with the thread's lifetime.
func TestCheckCatchesViolations(t *testing.T) {
	k := sim.NewKernel()
	p := NewProfiler()
	k.SetObserver(&Session{Prof: p})
	var captured *sim.Thread
	k.Spawn("x", func(th *sim.Thread) { captured = th; th.Advance(4) })
	k.MustRun()
	if err := p.Check(); err != nil {
		t.Fatalf("clean run: %v", err)
	}

	p.Enter(captured, DepSlot)
	if err := p.Check(); err == nil || !strings.Contains(err.Error(), "unmatched") {
		t.Fatalf("unmatched Enter not flagged: %v", err)
	}
	p.Exit(captured)

	p.byID[captured.ID()].Cycles[Compute]++ // corrupt the accounting
	if err := p.Check(); err == nil || !strings.Contains(err.Error(), "lifetime") {
		t.Fatalf("sum/lifetime mismatch not flagged: %v", err)
	}
}

// TestSpanRecording: spans are recorded only when enabled, zero-duration
// waits are skipped, and the cap counts instead of stores.
func TestSpanRecording(t *testing.T) {
	k := sim.NewKernel()
	p := NewProfiler()
	p.EnableSpans(2)
	k.SetObserver(&Session{Prof: p})
	k.Spawn("s", func(th *sim.Thread) {
		p.Enter(th, FenceWait) // zero-duration: not recorded
		p.Exit(th)
		for i := 0; i < 3; i++ {
			p.Enter(th, DepSlot)
			th.Advance(5)
			p.Exit(th)
		}
	})
	k.MustRun()

	spans, dropped := p.Spans()
	if len(spans) != 2 || dropped != 1 {
		t.Fatalf("got %d spans, %d dropped; want 2 kept, 1 dropped", len(spans), dropped)
	}
	if spans[0].Bucket != DepSlot || spans[0].To-spans[0].From != 5 {
		t.Fatalf("span[0] = %+v, want 5-cycle dep-slot", spans[0])
	}
}

// TestWriteJSON: the dump round-trips, keeps only nonzero buckets, and
// each thread's bucket cycles sum to its total.
func TestWriteJSON(t *testing.T) {
	k := sim.NewKernel()
	p := NewProfiler()
	k.SetObserver(&Session{Prof: p})
	k.Spawn("j", func(th *sim.Thread) {
		th.Advance(9)
		p.Enter(th, Drain)
		th.Advance(4)
		p.Exit(th)
	})
	k.MustRun()

	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Threads []struct {
			Name   string            `json:"name"`
			Total  uint64            `json:"total"`
			Cycles map[string]uint64 `json:"cycles"`
		} `json:"threads"`
		Totals map[string]uint64 `json:"totals"`
		Total  uint64            `json:"total"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("WriteJSON output does not parse: %v", err)
	}
	if len(doc.Threads) != 1 || doc.Total != 13 {
		t.Fatalf("doc = %+v, want one thread, total 13", doc)
	}
	th := doc.Threads[0]
	var sum uint64
	for _, c := range th.Cycles {
		sum += c
	}
	if sum != th.Total {
		t.Fatalf("thread bucket cycles %d != total %d", sum, th.Total)
	}
	if th.Cycles["compute"] != 9 || th.Cycles["drain"] != 4 {
		t.Fatalf("cycles = %v, want compute:9 drain:4", th.Cycles)
	}
	if _, ok := th.Cycles["wpq-full"]; ok {
		t.Fatal("zero bucket serialized")
	}
}

// TestBucketNames: every bucket has a distinct name and the exported list
// matches String().
func TestBucketNames(t *testing.T) {
	names := BucketNames()
	if len(names) != int(NumBuckets) {
		t.Fatalf("BucketNames len = %d", len(names))
	}
	seen := map[string]bool{}
	for b, n := range names {
		if n == "" || seen[n] {
			t.Fatalf("bucket %d name %q empty or duplicated", b, n)
		}
		seen[n] = true
		if Bucket(b).String() != n {
			t.Fatalf("Bucket(%d).String() = %q, want %q", b, Bucket(b).String(), n)
		}
	}
	if !strings.HasPrefix(Bucket(200).String(), "bucket(") {
		t.Fatal("out-of-range bucket should fall back")
	}
}

// TestWaitAndStall: Wait and Stall charge their cycles to the bucket, and
// a nil profiler still waits and advances.
func TestWaitAndStall(t *testing.T) {
	for _, p := range []*Profiler{nil, NewProfiler()} {
		k := sim.NewKernel()
		if p != nil {
			k.SetObserver(&Session{Prof: p})
		}
		ready := false
		k.Schedule(50, func() { ready = true })
		var waited, stalled uint64
		k.Spawn("w", func(th *sim.Thread) {
			p.Wait(th, FenceWait, func() bool { return ready })
			waited = th.Now()
			p.Stall(th, LogOverflow, 20)
			stalled = th.Now()
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if waited != 50 || stalled != 70 {
			t.Fatalf("profiler %v: waited to %d, stalled to %d; want 50, 70", p != nil, waited, stalled)
		}
		if p == nil {
			continue
		}
		if err := p.Check(); err != nil {
			t.Fatal(err)
		}
		if w := p.Threads()[0]; w.Cycles[FenceWait] != 50 || w.Cycles[LogOverflow] != 20 {
			t.Fatalf("fence=%d overflow=%d, want 50/20", w.Cycles[FenceWait], w.Cycles[LogOverflow])
		}
	}
}
