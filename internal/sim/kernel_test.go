package sim

import (
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestSingleThreadAdvances(t *testing.T) {
	k := NewKernel()
	var end uint64
	k.Spawn("a", func(th *Thread) {
		th.Advance(10)
		th.Advance(5)
		end = th.Now()
	})
	k.MustRun()
	if end != 15 {
		t.Fatalf("thread clock = %d, want 15", end)
	}
	if k.Now() != 15 {
		t.Fatalf("kernel clock = %d, want 15", k.Now())
	}
}

func TestThreadsInterleaveByClock(t *testing.T) {
	k := NewKernel()
	var order []string
	k.Spawn("slow", func(th *Thread) {
		for i := 0; i < 3; i++ {
			th.Advance(10)
			order = append(order, "slow")
		}
	})
	k.Spawn("fast", func(th *Thread) {
		for i := 0; i < 3; i++ {
			th.Advance(4)
			order = append(order, "fast")
		}
	})
	k.MustRun()
	want := []string{"fast", "fast", "slow", "fast", "slow", "slow"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	k := NewKernel()
	var fired []uint64
	k.Schedule(30, func() { fired = append(fired, 30) })
	k.Schedule(10, func() { fired = append(fired, 10) })
	k.Schedule(20, func() { fired = append(fired, 20) })
	k.Spawn("t", func(th *Thread) { th.Advance(100) })
	k.MustRun()
	want := []uint64{10, 20, 30}
	if !reflect.DeepEqual(fired, want) {
		t.Fatalf("fired = %v, want %v", fired, want)
	}
}

func TestEventBeforeThreadAtSameInstant(t *testing.T) {
	k := NewKernel()
	var order []string
	k.Schedule(10, func() { order = append(order, "event") })
	k.Spawn("t", func(th *Thread) {
		th.Advance(10)
		order = append(order, "thread")
	})
	k.MustRun()
	// An event at cycle 10 must be visible to a thread step beginning at 10.
	want := []string{"event", "thread"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

func TestEventTieBreakIsInsertionOrder(t *testing.T) {
	k := NewKernel()
	var fired []int
	for i := 0; i < 5; i++ {
		i := i
		k.Schedule(7, func() { fired = append(fired, i) })
	}
	k.Spawn("t", func(th *Thread) { th.Advance(8) })
	k.MustRun()
	if !reflect.DeepEqual(fired, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("fired = %v, want insertion order", fired)
	}
}

func TestWaitUntilUnblocksOnEvent(t *testing.T) {
	k := NewKernel()
	ready := false
	var woke uint64
	k.Schedule(50, func() { ready = true })
	k.Spawn("waiter", func(th *Thread) {
		th.Advance(1)
		th.WaitUntil(func() bool { return ready })
		woke = th.Now()
	})
	k.MustRun()
	if woke != 50 {
		t.Fatalf("woke at %d, want 50", woke)
	}
}

func TestWaitUntilImmediateWhenTrue(t *testing.T) {
	k := NewKernel()
	var woke uint64
	k.Spawn("w", func(th *Thread) {
		th.Advance(3)
		th.WaitUntil(func() bool { return true })
		woke = th.Now()
	})
	k.MustRun()
	if woke != 3 {
		t.Fatalf("woke at %d, want 3 (no block)", woke)
	}
}

func TestDeadlockPanics(t *testing.T) {
	// MustRun is the compatibility shim preserving the historical
	// panic-on-deadlock contract; the panic value is the *StallError.
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("expected deadlock panic")
		}
		if _, ok := v.(*StallError); !ok {
			t.Fatalf("panic value = %T, want *StallError", v)
		}
	}()
	k := NewKernel()
	k.Spawn("stuck", func(th *Thread) {
		th.WaitUntil(func() bool { return false })
	})
	k.MustRun()
}

func TestDeadlockReturnsStallError(t *testing.T) {
	k := NewKernel()
	k.Spawn("stuck-a", func(th *Thread) {
		th.Advance(7)
		th.WaitUntil(func() bool { return false })
	})
	k.Spawn("stuck-b", func(th *Thread) {
		th.Advance(3)
		th.WaitUntil(func() bool { return false })
	})
	err := k.Run()
	se, ok := err.(*StallError)
	if !ok {
		t.Fatalf("Run() = %v (%T), want *StallError", err, err)
	}
	if se.Kind != StallDeadlock {
		t.Fatalf("Kind = %q, want %q", se.Kind, StallDeadlock)
	}
	if len(se.Blocked) != 2 {
		t.Fatalf("Blocked = %v, want 2 entries", se.Blocked)
	}
	// Blocked report is in spawn order with each thread's own clock.
	if se.Blocked[0].Name != "stuck-a" || se.Blocked[0].Clock != 7 {
		t.Fatalf("Blocked[0] = %+v, want stuck-a@7", se.Blocked[0])
	}
	if se.Blocked[1].Name != "stuck-b" || se.Blocked[1].Clock != 3 {
		t.Fatalf("Blocked[1] = %+v, want stuck-b@3", se.Blocked[1])
	}
}

func TestWatchdogDiagnosesLivelock(t *testing.T) {
	k := NewKernel()
	// A spinner that advances time forever without ever making progress,
	// plus a thread blocked on a predicate that never holds: without the
	// watchdog this runs unbounded (no deadlock — the spinner is runnable).
	k.Spawn("spinner", func(th *Thread) {
		for {
			th.Advance(10)
			if th.Now() > 1_000_000 {
				t.Error("watchdog never fired")
				return
			}
		}
	})
	k.Spawn("blocked", func(th *Thread) {
		th.WaitUntil(func() bool { return false })
	})
	k.SetWatchdog(&Watchdog{
		Window:   1000,
		Progress: func() uint64 { return 0 }, // never advances
		Backlog:  func() int { return 1 },    // work outstanding
		Gauges:   func() map[string]int { return map[string]int{"wpq0": 3} },
		Snapshot: func() string { return "dep-graph: r1 -> r2" },
	})
	err := k.Run()
	se, ok := err.(*StallError)
	if !ok {
		t.Fatalf("Run() = %v (%T), want *StallError", err, err)
	}
	if se.Kind != StallLivelock {
		t.Fatalf("Kind = %q, want %q", se.Kind, StallLivelock)
	}
	if se.At < 1000 || se.At > 2000 {
		t.Fatalf("diagnosed at cycle %d, want within ~one window of 1000", se.At)
	}
	if se.Window != 1000 {
		t.Fatalf("Window = %d, want 1000", se.Window)
	}
	if se.Gauges["wpq0"] != 3 {
		t.Fatalf("Gauges = %v, want wpq0=3", se.Gauges)
	}
	if se.Snapshot == "" || se.Blocked[0].Name != "blocked" {
		t.Fatalf("missing snapshot/blocked report: %+v", se)
	}
}

func TestWatchdogRearmsOnProgress(t *testing.T) {
	k := NewKernel()
	var progress uint64
	k.Spawn("worker", func(th *Thread) {
		for i := 0; i < 100; i++ {
			th.Advance(100)
			progress++ // one unit of progress per 100 cycles
		}
	})
	k.SetWatchdog(&Watchdog{
		Window:   1000,
		Progress: func() uint64 { return progress },
		Backlog:  func() int { return 1 },
	})
	if err := k.Run(); err != nil {
		t.Fatalf("Run() = %v, want nil (progress should rearm watchdog)", err)
	}
	if progress != 100 {
		t.Fatalf("worker completed %d steps, want 100", progress)
	}
}

func TestWatchdogIdleTailNotAStall(t *testing.T) {
	k := NewKernel()
	k.Spawn("slow", func(th *Thread) {
		sleepUntil(th, 50_000) // long quiet stretch, zero progress
	})
	k.SetWatchdog(&Watchdog{
		Window:   1000,
		Progress: func() uint64 { return 0 },
		Backlog:  func() int { return 0 }, // nothing outstanding
	})
	if err := k.Run(); err != nil {
		t.Fatalf("Run() = %v, want nil (zero backlog is not a livelock)", err)
	}
}

func TestStallErrorMessage(t *testing.T) {
	e := &StallError{
		Kind:    StallDeadlock,
		At:      42,
		Blocked: []BlockedThread{{Name: "a", ID: 0, Clock: 40}},
		Gauges:  map[string]int{"wpq0": 2, "lhwpq0": 1},
	}
	msg := e.Error()
	for _, want := range []string{"deadlock", "cycle 42", "a@40", "lhwpq0=1", "wpq0=2"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("Error() = %q, missing %q", msg, want)
		}
	}
}

func TestScheduleAfter(t *testing.T) {
	k := NewKernel()
	var at uint64
	k.Spawn("t", func(th *Thread) {
		th.Advance(10)
		th.Kernel().ScheduleAfter(5, func() { at = th.Kernel().Now() })
		th.Advance(100)
	})
	k.MustRun()
	if at != 15 {
		t.Fatalf("event fired at %d, want 15", at)
	}
}

func TestMutexMutualExclusion(t *testing.T) {
	k := NewKernel()
	var m Mutex
	inside := 0
	maxInside := 0
	for i := 0; i < 4; i++ {
		k.Spawn("worker", func(th *Thread) {
			for j := 0; j < 10; j++ {
				m.Lock(th)
				inside++
				if inside > maxInside {
					maxInside = inside
				}
				th.Advance(7)
				inside--
				m.Unlock(th)
				th.Advance(3)
			}
		})
	}
	k.MustRun()
	if maxInside != 1 {
		t.Fatalf("max threads inside critical section = %d, want 1", maxInside)
	}
}

func TestMutexContentionCostsTime(t *testing.T) {
	k := NewKernel()
	var m Mutex
	var second uint64
	k.Spawn("first", func(th *Thread) {
		m.Lock(th)
		th.Advance(100)
		m.Unlock(th)
	})
	k.Spawn("second", func(th *Thread) {
		th.Advance(1) // ensure first grabs the lock
		m.Lock(th)
		second = th.Now()
		m.Unlock(th)
	})
	k.MustRun()
	if second < 104 {
		t.Fatalf("contended acquire completed at %d, want >= 104", second)
	}
}

func TestMutexUnlockByNonHolderPanics(t *testing.T) {
	k := NewKernel()
	var m Mutex
	k.Spawn("a", func(th *Thread) { m.Lock(th) })
	k.Spawn("b", func(th *Thread) {
		th.Advance(10)
		defer func() {
			if recover() == nil {
				t.Error("expected panic on foreign unlock")
			}
		}()
		m.Unlock(th)
	})
	k.MustRun()
}

func TestDeterminism(t *testing.T) {
	run := func() []string {
		k := NewKernel()
		var trace []string
		var m Mutex
		for i, d := range []uint64{3, 5, 7} {
			name := string(rune('a' + i))
			d := d
			k.Spawn(name, func(th *Thread) {
				for j := 0; j < 5; j++ {
					m.Lock(th)
					th.Advance(d)
					trace = append(trace, name)
					m.Unlock(th)
				}
			})
		}
		return append(trace[:0:0], trace...)
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two identical runs diverged:\n%v\n%v", a, b)
	}
}

func TestSpawnFromRunningThread(t *testing.T) {
	k := NewKernel()
	var childEnd uint64
	k.Spawn("parent", func(th *Thread) {
		th.Advance(10)
		k.Spawn("child", func(c *Thread) {
			c.Advance(5)
			childEnd = c.Now()
		})
		th.Advance(1)
	})
	k.MustRun()
	if childEnd != 15 {
		t.Fatalf("child finished at %d, want 15 (spawned at 10, ran 5)", childEnd)
	}
}

func TestKernelClockMonotone(t *testing.T) {
	k := NewKernel()
	var samples []uint64
	k.Schedule(5, func() { samples = append(samples, k.Now()) })
	k.Spawn("a", func(th *Thread) {
		th.Advance(3)
		samples = append(samples, k.Now())
		th.Advance(10)
		samples = append(samples, k.Now())
	})
	k.MustRun()
	for i := 1; i < len(samples); i++ {
		if samples[i] < samples[i-1] {
			t.Fatalf("kernel clock went backwards: %v", samples)
		}
	}
}

func TestHaltStopsRun(t *testing.T) {
	k := NewKernel()
	steps := 0
	k.Schedule(50, func() { k.Halt() })
	k.Spawn("w", func(th *Thread) {
		for i := 0; i < 1000; i++ {
			th.Advance(10)
			steps++
		}
	})
	k.MustRun()
	if !k.Halted() {
		t.Fatal("kernel not halted")
	}
	if steps >= 1000 {
		t.Fatal("thread ran to completion despite halt")
	}
	if k.Now() > 100 {
		t.Fatalf("kernel advanced to %d after halt at 50", k.Now())
	}
}

func TestHaltFromThread(t *testing.T) {
	k := NewKernel()
	var after bool
	k.Spawn("a", func(th *Thread) {
		th.Advance(10)
		k.Halt()
		th.Advance(10) // still runs to its next yield...
	})
	k.Spawn("b", func(th *Thread) {
		th.Advance(1000)
		after = true // ...but no one else is scheduled afterwards
	})
	k.MustRun()
	if after {
		t.Fatal("another thread ran after Halt")
	}
}

// settleGoroutines waits briefly for exited goroutines to leave the
// runtime's count, then fails if more than want are still alive.
func settleGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		got := runtime.NumGoroutine()
		if got <= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines alive after Run returned, want %d", got, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// runRecover runs k and returns the value Run panicked with, if any.
func runRecover(k *Kernel) (v any) {
	defer func() { v = recover() }()
	k.MustRun()
	return nil
}

func TestThreadPanicReachesRunCaller(t *testing.T) {
	base := runtime.NumGoroutine()
	cases := map[string]func(k *Kernel){
		"thread body": func(k *Kernel) {
			k.Spawn("bad", func(th *Thread) {
				th.Advance(10)
				panic("boom")
			})
		},
		// The event fires inside the thread's own yield, on its goroutine.
		"event": func(k *Kernel) {
			k.Schedule(5, func() { panic("boom") })
			k.Spawn("w", func(th *Thread) { th.Advance(10) })
		},
		"predicate": func(k *Kernel) {
			k.Spawn("w", func(th *Thread) {
				th.WaitUntil(func() bool { return k.Now() >= 200 && panicNow() })
			})
		},
		"first dispatch": func(k *Kernel) {
			k.Schedule(0, func() { panic("boom") })
			k.Spawn("never-started", func(th *Thread) { t.Error("thread ran") })
		},
	}
	for name, build := range cases {
		k := NewKernel()
		build(k)
		// Bystanders in every scheduling structure must be released.
		k.Spawn("queued", func(th *Thread) {
			for {
				th.Advance(100)
			}
		})
		k.Spawn("blocked", func(th *Thread) { th.WaitUntil(func() bool { return false }) })
		if v := runRecover(k); v != "boom" {
			t.Errorf("%s: Run panicked with %v, want boom", name, v)
		}
	}
	settleGoroutines(t, base)
}

func panicNow() bool { panic("boom") }

func TestRunLeavesNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		k := NewKernel()
		k.Schedule(50, func() { k.Halt() })
		for w := 0; w < 4; w++ {
			k.Spawn("w", func(th *Thread) {
				for {
					th.Advance(10)
				}
			})
		}
		if err := k.Run(); err != nil || !k.Halted() {
			t.Fatalf("halted run: err %v, halted %v", err, k.Halted())
		}
	}
	for i := 0; i < 100; i++ {
		k := NewKernel()
		for w := 0; w < 4; w++ {
			k.Spawn("stuck", func(th *Thread) {
				th.Advance(uint64(w))
				th.WaitUntil(func() bool { return false })
			})
		}
		var se *StallError
		if err := k.Run(); !errors.As(err, &se) || se.Kind != StallDeadlock {
			t.Fatalf("deadlocked run: err %v", err)
		}
	}
	settleGoroutines(t, base)
}

// A released thread exits through runtime.Goexit, which a recover in the
// thread body cannot stop: no simulated code runs after Run returns.
func TestReleaseIgnoresRecoverInThread(t *testing.T) {
	base := runtime.NumGoroutine()
	k := NewKernel()
	resumed := false
	k.Spawn("stuck", func(th *Thread) {
		defer func() { _ = recover() }()
		th.WaitUntil(func() bool { return false })
		resumed = true
	})
	k.Spawn("halter", func(th *Thread) {
		th.Advance(5)
		k.Halt()
		th.Advance(5)
		resumed = true
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	settleGoroutines(t, base)
	if resumed {
		t.Fatal("a thread ran simulated code after the run ended")
	}
}
