// Kernel micro-benchmarks covering the scheduler's hot paths: the
// Advance/yield cycle (direct-dispatch fast path), cross-thread
// WaitUntil handoffs (slow path, one goroutine switch each), the slow
// path that re-picks the yielding thread (no switch), event scheduling
// and firing (event pool + queue), and one full quick-scale benchmark
// run as the end-to-end number. Run with
//
//	go test -bench=. -benchmem -run='^$' ./internal/sim
//
// and compare against the committed baseline with benchstat.
package sim_test

import (
	"testing"

	"asap/internal/experiment"
	"asap/internal/sim"
)

// BenchmarkAdvanceYield measures the single-runnable-thread step: one
// Advance per op, no competing thread or event. This is the case the
// direct-dispatch fast path collapses to a few comparisons; before it,
// every op paid two goroutine handoffs.
func BenchmarkAdvanceYield(b *testing.B) {
	b.ReportAllocs()
	k := sim.NewKernel()
	k.Spawn("w", func(t *sim.Thread) {
		for i := 0; i < b.N; i++ {
			t.Advance(1)
		}
	})
	b.ResetTimer()
	k.MustRun()
}

// BenchmarkAdvanceYieldContended measures the two-runnable-thread step:
// the threads alternate in simulated time, so every yield takes the slow
// path and switches goroutines. This bounds what the slow path costs.
func BenchmarkAdvanceYieldContended(b *testing.B) {
	b.ReportAllocs()
	k := sim.NewKernel()
	for w := 0; w < 2; w++ {
		k.Spawn("w", func(t *sim.Thread) {
			for i := 0; i < b.N; i++ {
				t.Advance(2)
			}
		})
	}
	b.ResetTimer()
	k.MustRun()
}

// BenchmarkWaitUntilHandoff measures a producer/consumer ping-pong
// through WaitUntil predicates: every iteration blocks each side once,
// so this is all slow-path dispatch and predicate polling.
func BenchmarkWaitUntilHandoff(b *testing.B) {
	b.ReportAllocs()
	k := sim.NewKernel()
	token := 0
	k.Spawn("producer", func(t *sim.Thread) {
		for i := 0; i < b.N; i++ {
			t.WaitUntil(func() bool { return token == 0 })
			token = 1
			t.Advance(1)
		}
	})
	k.Spawn("consumer", func(t *sim.Thread) {
		for i := 0; i < b.N; i++ {
			t.WaitUntil(func() bool { return token == 1 })
			token = 0
			t.Advance(1)
		}
	})
	b.ResetTimer()
	k.MustRun()
}

// BenchmarkScheduleFire measures event throughput: schedule-then-fire of
// a non-capturing callback, the shape memdev's channel pipeline uses.
// With the event free list this should be allocation-free steady-state.
func BenchmarkScheduleFire(b *testing.B) {
	b.ReportAllocs()
	k := sim.NewKernel()
	fired := 0
	fire := func() { fired++ } // hoisted: measure the kernel, not closure construction
	k.Spawn("driver", func(t *sim.Thread) {
		for i := 0; i < b.N; i++ {
			t.Kernel().ScheduleAfter(1, fire)
			t.Advance(2)
		}
	})
	b.ResetTimer()
	k.MustRun()
	if fired != b.N {
		b.Fatalf("fired %d events, want %d", fired, b.N)
	}
}

// BenchmarkEventRepick measures the slow path that picks the yielding
// thread again: every Advance lands on a pending event at the thread's
// new clock (events win ties), so the fast path declines, the thread
// fires the event itself and is the next choice. No goroutine switches.
func BenchmarkEventRepick(b *testing.B) {
	b.ReportAllocs()
	k := sim.NewKernel()
	fired := 0
	fire := func() { fired++ }
	k.Spawn("w", func(t *sim.Thread) {
		for i := 0; i < b.N; i++ {
			t.Kernel().ScheduleAfter(1, fire)
			t.Advance(1)
		}
	})
	b.ResetTimer()
	k.MustRun()
	if fired != b.N {
		b.Fatalf("fired %d events, want %d", fired, b.N)
	}
}

// BenchmarkMutexPingPong measures contended lock handoff between two
// threads, covering the Mutex predicate cache and the blocked-claim path.
func BenchmarkMutexPingPong(b *testing.B) {
	b.ReportAllocs()
	k := sim.NewKernel()
	var m sim.Mutex
	for w := 0; w < 2; w++ {
		k.Spawn("w", func(t *sim.Thread) {
			for i := 0; i < b.N; i++ {
				m.Lock(t)
				t.Advance(3)
				m.Unlock(t)
			}
		})
	}
	b.ResetTimer()
	k.MustRun()
}

// BenchmarkFullQuickScale runs one complete quick-scale benchmark (Q
// under ASAP) end to end: machine build, workload, consistency check.
// This is the number that tracks real sweep wall-clock.
func BenchmarkFullQuickScale(b *testing.B) {
	b.ReportAllocs()
	scale := experiment.QuickScale()
	for i := 0; i < b.N; i++ {
		res := experiment.Run(experiment.Variant{Scheme: "ASAP"}, "Q", scale, 64)
		if res.CheckErr != "" {
			b.Fatalf("consistency check failed: %s", res.CheckErr)
		}
	}
}
