// Command asapbench regenerates the paper's evaluation tables and figures.
//
// Usage:
//
//	asapbench -experiment fig7                    # one figure, quick scale
//	asapbench -experiment all -full               # everything, paper scale
//	asapbench -experiment all -parallel 8         # fan runs across 8 workers
//	asapbench -experiment fig1 -json timings.json # machine-readable timings
//	asapbench -experiment all -cpuprofile cpu.pb.gz -memprofile mem.pb.gz
//
// Experiments: fig1 fig7 fig8 fig9a fig9b fig10 lhwpq area config all,
// plus "profile" (cycle accounting across schemes; not part of "all" so
// the default output stays byte-identical with observability off).
//
// The experiment registry and renderer live in internal/sweep, shared
// with cmd/asapd: a sweep submitted to the daemon produces bytes
// identical to this CLI. Every experiment fans its (variant × benchmark)
// matrix across a worker pool and assembles results in submission order,
// so the emitted tables are byte-identical at any -parallel width.
//
// SIGINT/SIGTERM stop the sweep after the runs already in flight: the
// partial -json report is still flushed, and the exit status is 130, so
// an interrupted overnight run keeps the timings it earned.
//
// Exit status is non-zero if any requested experiment fails.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"asap/internal/experiment"
	"asap/internal/obs"
	"asap/internal/report"
	"asap/internal/resultcache"
	"asap/internal/runner"
	"asap/internal/stats"
	"asap/internal/sweep"
)

func main() { os.Exit(run()) }

// experimentTiming is one experiment's entry in the -json artifact.
type experimentTiming struct {
	Name   string `json:"name"`
	WallNS int64  `json:"wall_ns"`
	Error  string `json:"error,omitempty"`
}

// timingReport is the -json artifact: per-experiment and per-job wall
// times plus the simulated metrics, for CI trend tracking and speedup
// verification (TotalJobWallNS / WallNS ≈ achieved parallelism).
type timingReport struct {
	Parallel       int                `json:"parallel"`
	GOMAXPROCS     int                `json:"gomaxprocs"`
	Scale          string             `json:"scale"`
	Interrupted    bool               `json:"interrupted,omitempty"`
	CacheHits      int64              `json:"cache_hits"`
	CacheMisses    int64              `json:"cache_misses"`
	WallNS         int64              `json:"wall_ns"`
	TotalJobWallNS int64              `json:"total_job_wall_ns"`
	Experiments    []experimentTiming `json:"experiments"`
	Jobs           []stats.JobMetrics `json:"jobs"`
}

func run() int {
	which := flag.String("experiment", "all", strings.Join(sweep.Names(), "|")+"|all")
	profBench := flag.String("profile-bench", "Q", "benchmark for -experiment profile")
	full := flag.Bool("full", false, "paper-scale runs (slower)")
	chart := flag.Bool("chart", false, "render tables as ASCII bar charts")
	parallel := flag.Int("parallel", 0, "experiment worker pool size (0 = GOMAXPROCS, 1 = serial)")
	jsonPath := flag.String("json", "", "write per-experiment and per-job timings as JSON to this path")
	progress := flag.Bool("progress", report.IsTerminal(os.Stderr), "print a live progress line to stderr")
	cacheDir := flag.String("cache-dir", "", "result-cache directory: cells keyed by (config, seed, code version) are reused across runs")
	noCache := flag.Bool("no-cache", false, "bypass the result cache even when -cache-dir is set")
	checkpointEvery := flag.Uint64("checkpoint-every", 0, "audit mode: capture machine-state digests every N cycles in every run (output-neutral)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile (runtime/pprof) to this path")
	memProfile := flag.String("memprofile", "", "write a heap profile taken at exit to this path")
	flag.Parse()

	if *which != "all" && !sweep.Known(*which) {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *which)
		return 2
	}

	if *cpuProfile != "" {
		stop, err := obs.StartCPUProfile(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "asapbench: %v\n", err)
			return 1
		}
		defer stop()
	}
	if *memProfile != "" {
		defer func() {
			if err := obs.WriteHeapProfile(*memProfile); err != nil {
				fmt.Fprintf(os.Stderr, "asapbench: %v\n", err)
			}
		}()
	}

	// An interrupt cancels the sweep context: runs already dispatched
	// finish, nothing further starts, and the partial report survives.
	ctx, stopSignals := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stopSignals()

	pool := runner.New(*parallel)
	jobLog := &stats.JobLog{}
	pool.SetMetrics(jobLog)
	var prog *report.Progress
	if *progress {
		prog = report.NewProgress(os.Stderr)
		pool.SetReporter(prog)
	}

	cache, codeVersion, err := resultcache.OpenCLI(os.Stderr, "asapbench", *cacheDir, *noCache)
	if err != nil {
		fmt.Fprintf(os.Stderr, "asapbench: %v\n", err)
		return 1
	}
	experiment.SetCheckpointEvery(*checkpointEvery)

	scaleName := "quick"
	if *full {
		scaleName = "full"
	}
	spec := sweep.Spec{
		Experiments:  []string{*which},
		Scale:        scaleName,
		Chart:        *chart,
		ProfileBench: *profBench,
	}

	rep := timingReport{
		Parallel:   pool.Workers(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Scale:      scaleName,
	}
	failures := 0
	start := time.Now()
	results, execErr := sweep.Execute(ctx, spec, os.Stdout, sweep.Options{
		Pool:        pool,
		Cache:       cache,
		CodeVersion: codeVersion,
		OnExperiment: func(name string, wall time.Duration, err error) {
			if err != nil {
				failures++
				fmt.Fprintf(os.Stderr, "asapbench: experiment %s failed: %v\n", name, err)
			}
		},
	})
	rep.WallNS = time.Since(start).Nanoseconds()
	rep.TotalJobWallNS = jobLog.TotalWall().Nanoseconds()
	rep.Jobs = jobLog.Snapshot()
	for _, r := range results {
		rep.Experiments = append(rep.Experiments, experimentTiming(r))
	}
	if prog != nil {
		prog.Finish()
	}
	if cache != nil {
		hits, misses, _ := cache.Stats()
		rep.CacheHits, rep.CacheMisses = hits, misses
		fmt.Fprintf(os.Stderr, "asapbench: result cache: %d hits, %d misses (%s)\n", hits, misses, *cacheDir)
	}

	interrupted := ctx.Err() != nil
	rep.Interrupted = interrupted

	if *jsonPath != "" {
		if err := writeJSON(*jsonPath, rep); err != nil {
			fmt.Fprintf(os.Stderr, "asapbench: %v\n", err)
			return 1
		}
	}
	if interrupted {
		fmt.Fprintf(os.Stderr, "asapbench: interrupted after %d of %d experiments; partial report flushed\n",
			len(results), len(expandedNames(spec)))
		return 130
	}
	if execErr != nil {
		fmt.Fprintf(os.Stderr, "asapbench: %v\n", execErr)
		return 1
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "asapbench: %d of %d experiments failed\n", failures, len(results))
		return 1
	}
	return 0
}

// expandedNames reports how many experiments the spec would run.
func expandedNames(spec sweep.Spec) []string {
	for _, n := range spec.Experiments {
		if n == "all" {
			return sweep.AllNames()
		}
	}
	return spec.Experiments
}

// writeJSON writes the timing artifact with a trailing newline.
func writeJSON(path string, rep timingReport) error {
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
