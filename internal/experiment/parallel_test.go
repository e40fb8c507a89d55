package experiment

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
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
	sc := tinyScale("BN", "Q")

	sw := Sweep{Scale: sc, Pool: runner.New(1)}
	serial := sw.Fig1().String() + sw.Fig9b().String() + sw.Sec74().String()

	sw.Pool = runner.New(8)
	wide := sw.Fig1().String() + sw.Fig9b().String() + sw.Sec74().String()

	if serial != wide {
		t.Fatalf("tables differ between pool widths:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, wide)
	}
}

// TestRunAllPanicPropagates preserves Run's serial failure semantics:
// a job that panics inside the pool (an inconsistent benchmark, an
// unknown scheme) must surface as a panic from runAll.
func TestRunAllPanicPropagates(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("runAll must re-raise job panics")
		}
		if !strings.Contains((r.(error)).Error(), "unknown scheme") {
			t.Fatalf("panic lost its cause: %v", r)
		}
	}()
	Sweep{Pool: runner.New(4)}.runAll("bad", []runSpec{{v: Variant{Scheme: "NoSuchScheme"}, bench: "Q", scale: tinyScale("Q"), valueBytes: 64}})
}

// TestPoolMetricsCarrySimulatedCycles: the job log wired through the
// pool must see the simulator's cycle and op counts for real runs.
func TestPoolMetricsCarrySimulatedCycles(t *testing.T) {
	p := runner.New(2)
	log := &stats.JobLog{}
	p.SetMetrics(log)

	sc := tinyScale("Q")
	Sweep{Scale: Scale{Threads: sc.Threads, OpsPerThread: sc.OpsPerThread, InitialItems: sc.InitialItems, Benchmarks: []string{"Q"}}, Pool: p}.Fig1()

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
		Sweep{Cache: store, CodeVersion: "test-code-version"}.runAll("custom", []runSpec{spec})
	}()
	if _, _, puts := store.Stats(); puts != 0 {
		t.Fatalf("the failed cell was cached (%d puts)", puts)
	}
}

// brokenCheck wraps a benchmark with a post-run check that always fails.
type brokenCheck struct{ workload.Benchmark }

func (brokenCheck) Check(*workload.Ctx) string { return "stub: invariant broken" }

// TestCoRunningHonoursCancellation: a cancelled sweep context stops the
// co-running sweep before it dispatches a single cell.
func TestCoRunningHonoursCancellation(t *testing.T) {
	p := runner.New(2)
	log := &stats.JobLog{}
	p.SetMetrics(log)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	func() {
		defer func() {
			err, _ := recover().(error)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("want a context.Canceled panic, got %v", err)
			}
		}()
		Sweep{Scale: QuickScale(), Pool: p, Ctx: ctx}.CoRunning()
	}()
	if n := len(log.Snapshot()); n != 0 {
		t.Fatalf("%d co-run cells ran after cancellation", n)
	}
}

// TestAuditedSweepBypassesCache: audit mode digests the state of every
// cell, so an audited sweep over a warm store must simulate every cell
// instead of serving it from the store, and its table must still match.
func TestAuditedSweepBypassesCache(t *testing.T) {
	store, err := resultcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sw := Sweep{Scale: smallScale(), Cache: store, CodeVersion: "test-code-version"}
	warm := sw.FenceSweep()
	if hits, misses, puts := store.Stats(); hits != 0 || misses == 0 || puts != misses {
		t.Fatalf("warm-up: hits=%d misses=%d puts=%d", hits, misses, puts)
	}

	sw.CheckpointEvery = 20000
	audited := sw.FenceSweep()
	if hits, _, _ := store.Stats(); hits != 0 {
		t.Fatalf("the audited sweep served %d cells from the cache", hits)
	}
	if audited.String() != warm.String() {
		t.Fatalf("audited table differs:\n%s\n%s", audited, warm)
	}
}

// TestConcurrentSweeps: sweeps carry their own pool, cache and audit
// cadence, so differently configured sweeps may run at once, and each
// must still produce the serial table.
func TestConcurrentSweeps(t *testing.T) {
	store, err := resultcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sc := tinyScale("BN", "Q")
	want := Sweep{Scale: sc}.Fig9b().String()

	sweeps := []Sweep{
		{Scale: sc, Pool: runner.New(2)},
		{Scale: sc, Cache: store, CodeVersion: "test-code-version"},
		{Scale: sc, Pool: runner.New(2), CheckpointEvery: 20000},
	}
	got := make([]string, len(sweeps))
	var wg sync.WaitGroup
	for i, sw := range sweeps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = sw.Fig9b().String()
		}()
	}
	wg.Wait()
	for i, g := range got {
		if g != want {
			t.Errorf("sweep %d differs from the serial table:\n%s\nwant:\n%s", i, g, want)
		}
	}
}
