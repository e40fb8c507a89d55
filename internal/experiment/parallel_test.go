package experiment

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"asap/internal/resultcache"
	"asap/internal/runner"
	"asap/internal/stats"
	"asap/internal/workload"
)

// TestFigureOutputIdenticalAcrossPoolWidths is the determinism gate's
// in-tree twin: the rendered tables must be byte-identical between the
// serial pool and a wide one, because results are assembled in
// submission order and every run builds a private machine.
func TestFigureOutputIdenticalAcrossPoolWidths(t *testing.T) {
	defer SetPool(nil)
	sc := tinyScale("BN", "Q")

	SetPool(runner.New(1))
	serial := Fig1(sc).String() + Fig9b(sc).String() + Sec74(sc).String()

	SetPool(runner.New(8))
	wide := Fig1(sc).String() + Fig9b(sc).String() + Sec74(sc).String()

	if serial != wide {
		t.Fatalf("tables differ between pool widths:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, wide)
	}
}

// TestRunAllPanicPropagates preserves Run's serial failure semantics:
// a job that panics inside the pool (an inconsistent benchmark, an
// unknown scheme) must surface as a panic from runAll.
func TestRunAllPanicPropagates(t *testing.T) {
	defer SetPool(nil)
	SetPool(runner.New(4))
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("runAll must re-raise job panics")
		}
		if !strings.Contains((r.(error)).Error(), "unknown scheme") {
			t.Fatalf("panic lost its cause: %v", r)
		}
	}()
	runAll("bad", []runSpec{{v: Variant{Scheme: "NoSuchScheme"}, bench: "Q", scale: tinyScale("Q"), valueBytes: 64}})
}

// TestPoolMetricsCarrySimulatedCycles: the job log wired through the
// pool must see the simulator's cycle and op counts for real runs.
func TestPoolMetricsCarrySimulatedCycles(t *testing.T) {
	defer SetPool(nil)
	p := runner.New(2)
	log := &stats.JobLog{}
	p.SetMetrics(log)
	SetPool(p)

	sc := tinyScale("Q")
	Fig1(Scale{Threads: sc.Threads, OpsPerThread: sc.OpsPerThread, InitialItems: sc.InitialItems, Benchmarks: []string{"Q"}})

	snap := log.Snapshot()
	if len(snap) != 3 { // NP, SW-DPOOnly, SW on one benchmark
		t.Fatalf("want 3 job metrics, got %d", len(snap))
	}
	if snap[0].Label != "fig1/Q/NP" {
		t.Fatalf("labels must follow submission order: %q", snap[0].Label)
	}
	for _, m := range snap {
		if m.Cycles == 0 || m.Ops == 0 {
			t.Fatalf("simulated metrics missing from %+v", m)
		}
	}
}

// TestCustomCellCheckFailurePanics: a custom cell whose benchmark fails
// its consistency check must panic out of runAll like a standard cell, and
// must leave nothing in the cell cache.
func TestCustomCellCheckFailurePanics(t *testing.T) {
	store, err := resultcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	SetCache(store, "test-code-version")
	defer SetCache(nil, "")
	spec := runSpec{
		v: Variant{Scheme: "ASAP"}, scale: tinyScale(), valueBytes: 64, label: "broken",
		benches:  []workload.Benchmark{brokenCheck{workload.NewQueue()}},
		cacheKey: resultcache.NewKey().Field("kind", "broken.v1"),
	}
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("runAll returned a cell whose check failed")
			}
			if !strings.Contains(fmt.Sprint(r), "stub: invariant broken") {
				t.Fatalf("panic lost the check verdict: %v", r)
			}
		}()
		runAll("custom", []runSpec{spec})
	}()
	if _, _, puts := store.Stats(); puts != 0 {
		t.Fatalf("the failed cell was cached (%d puts)", puts)
	}
}

// brokenCheck wraps a benchmark with a post-run check that always fails.
type brokenCheck struct{ workload.Benchmark }

func (brokenCheck) Check(*workload.Ctx) string { return "stub: invariant broken" }

// TestCoRunningHonoursCancellation: a cancelled package context stops the
// co-running sweep before it dispatches a single cell.
func TestCoRunningHonoursCancellation(t *testing.T) {
	defer SetPool(nil)
	p := runner.New(2)
	log := &stats.JobLog{}
	p.SetMetrics(log)
	SetPool(p)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	SetContext(ctx)
	defer SetContext(nil)

	func() {
		defer func() {
			err, _ := recover().(error)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("want a context.Canceled panic, got %v", err)
			}
		}()
		CoRunning(QuickScale())
	}()
	if n := len(log.Snapshot()); n != 0 {
		t.Fatalf("%d co-run cells ran after cancellation", n)
	}
}
