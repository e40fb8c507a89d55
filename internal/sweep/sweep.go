// Package sweep is the single definition of "run an experiment sweep":
// the spec vocabulary (experiment names, scale), the registry mapping
// names to figure runners, and the renderer that turns a spec into the
// exact bytes cmd/asapbench prints. cmd/asapd executes the same function
// the CLI does, which is how a sweep submitted over HTTP, killed -9
// mid-run and resumed after restart still completes with output
// byte-identical to the one-shot CLI: there is only one code path.
package sweep

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"asap/internal/area"
	"asap/internal/experiment"
	"asap/internal/machine"
	"asap/internal/report"
	"asap/internal/resultcache"
	"asap/internal/runner"
	"asap/internal/workload"
)

// Spec is one sweep request: which experiments, at which scale. It is
// the asapd job payload and the parsed form of asapbench's flags.
type Spec struct {
	// Experiments names the runs; ["all"] expands to AllNames() with the
	// per-experiment banner exactly like `asapbench -experiment all`.
	Experiments []string `json:"experiments"`
	// Scale is "quick" (default) or "full".
	Scale string `json:"scale,omitempty"`
	// Chart renders tables as ASCII bar charts (asapbench -chart).
	Chart bool `json:"chart,omitempty"`
	// ProfileBench is the benchmark for the "profile" experiment
	// (default Q).
	ProfileBench string `json:"profile_bench,omitempty"`
	// Parallel is the worker-pool width for the runs (0 = GOMAXPROCS,
	// 1 = serial). The pool fans within the sweep; output bytes are
	// width-independent by the runner's ordering guarantee.
	Parallel int `json:"parallel,omitempty"`
}

// AllNames is the expansion of "all", in asapbench's order.
func AllNames() []string {
	return []string{"config", "area", "fig1", "fig7", "fig8", "fig9a", "fig9b", "fig10", "lhwpq",
		"ablation-coalesce", "ablation-structs", "corun", "design", "fences", "lifetime", "numa", "tail", "scaling"}
}

// Names returns every runnable experiment name, sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Known reports whether name is runnable.
func Known(name string) bool {
	_, ok := registry[name]
	return ok
}

// Validate rejects malformed specs before they reach a journal.
func (s *Spec) Validate() error {
	if len(s.Experiments) == 0 {
		return fmt.Errorf("sweep: spec names no experiments")
	}
	for _, name := range s.Experiments {
		if name == "all" {
			continue
		}
		if !Known(name) {
			return fmt.Errorf("sweep: unknown experiment %q", name)
		}
	}
	switch s.Scale {
	case "", "quick", "full":
	default:
		return fmt.Errorf("sweep: unknown scale %q (want quick or full)", s.Scale)
	}
	if s.Parallel < 0 {
		return fmt.Errorf("sweep: negative parallelism %d", s.Parallel)
	}
	// Every job runs its profile benchmark in the observe pass, so an
	// unknown one is rejected here, not by a panic mid-job.
	if s.ProfileBench != "" && workload.ByName(s.ProfileBench) == nil {
		return fmt.Errorf("sweep: unknown profile benchmark %q", s.ProfileBench)
	}
	return nil
}

// scale resolves the Scale field.
func (s *Spec) scale() experiment.Scale {
	if s.Scale == "full" {
		return experiment.FullScale()
	}
	return experiment.QuickScale()
}

// profileBench resolves the ProfileBench field (default Q).
func (s *Spec) profileBench() string {
	if s.ProfileBench == "" {
		return "Q"
	}
	return s.ProfileBench
}

// names expands "all" and reports whether banners are printed.
func (s *Spec) names() (names []string, banners bool) {
	for _, n := range s.Experiments {
		if n == "all" {
			return AllNames(), true
		}
	}
	return s.Experiments, false
}

// env is what one registry entry gets to work with.
type env struct {
	w            io.Writer
	scale        experiment.Scale
	chart        bool
	profileBench string
}

// show renders one table the way asapbench does.
func (e *env) show(t *experiment.Table) {
	if e.chart {
		fmt.Fprintln(e.w, report.Render(t, report.Options{Baseline: 1}))
		return
	}
	fmt.Fprintln(e.w, t)
}

// registry maps experiment names to runners. It mirrors (and replaces)
// the map that lived in cmd/asapbench.
var registry = map[string]func(e *env){
	"fig1": func(e *env) { e.show(experiment.Fig1(e.scale)) },
	"fig7": func(e *env) {
		e.show(experiment.Fig7(e.scale, 64))
		e.show(experiment.Fig7(e.scale, 2048))
	},
	"fig8":  func(e *env) { e.show(experiment.Fig8(e.scale, 64)) },
	"fig9a": func(e *env) { e.show(experiment.Fig9a(e.scale)) },
	"fig9b": func(e *env) { e.show(experiment.Fig9b(e.scale)) },
	"fig10": func(e *env) {
		for _, t := range experiment.Fig10(e.scale) {
			e.show(t)
		}
	},
	"lhwpq":  func(e *env) { e.show(experiment.Sec74(e.scale)) },
	"area":   func(e *env) { fmt.Fprintln(e.w, area.Report(area.Default())) },
	"config": func(e *env) { printConfig(e.w) },
	"ablation-coalesce": func(e *env) {
		e.show(experiment.AblationCoalesce(e.scale, "Q"))
	},
	"ablation-structs": func(e *env) {
		e.show(experiment.AblationStructures(e.scale, "Q"))
	},
	"corun": func(e *env) { e.show(experiment.CoRunning(e.scale)) },
	// profile is intentionally not in "all": the -experiment all output
	// is gated byte-identical with observability off.
	"profile": func(e *env) {
		fmt.Fprintln(e.w, experiment.CycleAccounting(e.scale, e.profileBench, 64))
	},
	"design":   func(e *env) { e.show(experiment.DesignChoice(e.scale)) },
	"fences":   func(e *env) { e.show(experiment.FenceSweep(e.scale)) },
	"lifetime": func(e *env) { e.show(experiment.Lifetime(e.scale)) },
	"numa":     func(e *env) { e.show(experiment.NUMA(e.scale)) },
	"tail":     func(e *env) { e.show(experiment.TailLatency(e.scale)) },
	"scaling":  func(e *env) { e.show(experiment.Scaling(e.scale)) },
}

// ExpResult is one experiment's outcome within an executed spec.
type ExpResult struct {
	Name   string `json:"name"`
	WallNS int64  `json:"wall_ns"`
	Error  string `json:"error,omitempty"`
}

// Options tunes Execute beyond the spec.
type Options struct {
	// Pool overrides the spec's Parallel width with a caller-owned pool
	// (progress reporter, metrics log). nil builds one from the spec.
	Pool *runner.Pool
	// OnExperiment, when set, is called after each experiment with its
	// wall time and error — asapbench prints failures as they happen and
	// asapd uses it as a lease heartbeat.
	OnExperiment func(name string, wall time.Duration, err error)
	// Cache, when non-nil, memoizes experiment cells across runs: cells
	// whose (config, seed, code-version) key hits are re-rendered from
	// cached bytes instead of simulated. Output is byte-identical either
	// way; only wall time changes.
	Cache *resultcache.Store
	// CodeVersion is folded into every cache key; required when Cache is
	// set (resolve it with resultcache.CodeVersion). An empty version
	// with a non-nil Cache disables caching rather than risk stale hits.
	CodeVersion string
}

// execMu serializes Execute: the experiment package's pool and context
// are package state, so one sweep runs at a time per process. Queued
// daemon jobs simply wait their turn here; leases must be sized for
// that (cmd/asapd's default is generous).
var execMu sync.Mutex

// Execute runs the spec, writing its output — byte-identical to
// `asapbench -experiment ...` at any pool width — to w as experiments
// finish. A cancelled ctx stops the current experiment's remaining
// dispatches and skips the rest of the spec; Execute then returns
// ctx.Err(). Individual experiment failures are recorded in the results
// (and surfaced via OnExperiment), not returned as an error, matching
// the CLI's run-the-rest behaviour.
func Execute(ctx context.Context, spec Spec, w io.Writer, opt Options) ([]ExpResult, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	names, banners := spec.names()

	execMu.Lock()
	defer execMu.Unlock()

	pool := opt.Pool
	if pool == nil {
		pool = runner.New(spec.Parallel)
	}
	experiment.SetPool(pool)
	experiment.SetContext(ctx)
	experiment.SetCache(opt.Cache, opt.CodeVersion)
	defer func() {
		experiment.SetCache(nil, "")
		experiment.SetContext(nil)
		experiment.SetPool(nil)
	}()

	e := &env{w: w, scale: spec.scale(), chart: spec.Chart, profileBench: spec.profileBench()}

	var results []ExpResult
	for _, name := range names {
		if err := ctx.Err(); err != nil {
			return results, err
		}
		if banners {
			fmt.Fprintf(w, "==== %s ====\n", name)
		}
		wall, err := runOne(registry[name], e)
		res := ExpResult{Name: name, WallNS: wall.Nanoseconds()}
		if err != nil {
			res.Error = err.Error()
		}
		results = append(results, res)
		if opt.OnExperiment != nil {
			opt.OnExperiment(name, wall, err)
		}
	}
	return results, ctx.Err()
}

// runOne times one experiment, converting a panic (e.g. a
// consistency-check failure propagated by the pool, or a cancellation)
// into an error so the remaining experiments still run.
func runOne(fn func(*env), e *env) (wall time.Duration, err error) {
	start := time.Now()
	defer func() {
		wall = time.Since(start)
		if r := recover(); r != nil {
			if rerr, ok := r.(error); ok {
				err = rerr
			} else {
				err = fmt.Errorf("%v", r)
			}
		}
	}()
	fn(e)
	return time.Since(start), nil
}

// printConfig prints the Table 2 machine configuration (the "config"
// experiment), verbatim from the old asapbench implementation.
func printConfig(w io.Writer) {
	cfg := machine.DefaultConfig()
	fmt.Fprintln(w, "Table 2: system configuration")
	fmt.Fprintf(w, "  Cores                 %d\n", cfg.Cores)
	fmt.Fprintf(w, "  L1                    %d sets x %d ways, %d cycles\n", cfg.Caches.L1.Sets, cfg.Caches.L1.Ways, cfg.Caches.L1.Latency)
	fmt.Fprintf(w, "  L2                    %d sets x %d ways, %d cycles\n", cfg.Caches.L2.Sets, cfg.Caches.L2.Ways, cfg.Caches.L2.Latency)
	fmt.Fprintf(w, "  L3                    %d sets x %d ways, %d cycles\n", cfg.Caches.L3.Sets, cfg.Caches.L3.Ways, cfg.Caches.L3.Latency)
	fmt.Fprintf(w, "  Memory controllers    %d x %d channels\n", cfg.Mem.Controllers, cfg.Mem.ChannelsPerMC)
	fmt.Fprintf(w, "  WPQ                   %d entries/channel\n", cfg.Mem.WPQEntries)
	fmt.Fprintf(w, "  LH-WPQ                %d entries/channel\n", cfg.Mem.LHWPQEntries)
	fmt.Fprintf(w, "  DRAM read/write       %d/%d cycles\n", cfg.Mem.DRAMReadCycles, cfg.Mem.DRAMWriteCycles)
	fmt.Fprintf(w, "  PM read/write         %d/%d cycles (battery-backed DRAM) x %d\n", cfg.Mem.PMReadCycles, cfg.Mem.PMWriteCycles, cfg.Mem.PMLatencyMult)
	fmt.Fprintln(w)
}
