// Command asapsim runs one Table 3 benchmark under one persistence scheme
// and prints throughput, region latency and the hardware counters.
//
// Usage:
//
//	asapsim -bench Q -scheme ASAP -threads 4 -ops 500 -value 64 -pmmult 1
//
// Observability (all zero-cost when off):
//
//	asapsim -bench Q -scheme ASAP -profile               # cycle accounting table
//	asapsim -bench Q -scheme ASAP -profile-json p.json   # machine-readable buckets
//	asapsim -bench Q -scheme ASAP -timeline trace.json   # Perfetto/chrome://tracing
//	asapsim -bench Q -scheme ASAP -series occ.csv        # occupancy time series
//
// Performance profiling of the simulator itself (go tool pprof):
//
//	asapsim -bench Q -scheme ASAP -cpuprofile cpu.pb.gz -memprofile mem.pb.gz
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strings"

	"asap/internal/experiment"
	"asap/internal/obs"
	"asap/internal/schemes"
	"asap/internal/snapshot"
	"asap/internal/trace"
	"asap/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("asapsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	bench := fs.String("bench", "Q", "benchmark: BN BT CT EO HM Q RB SS TPCC")
	schemeNames := schemes.Names()
	scheme := fs.String("scheme", "ASAP", "scheme: "+strings.Join(schemeNames, " "))
	threads := fs.Int("threads", 4, "worker threads")
	ops := fs.Int("ops", 500, "operations per thread")
	items := fs.Int("items", 512, "initial items")
	value := fs.Int("value", 64, "value bytes per operation (paper: 64 or 2048)")
	pmmult := fs.Int("pmmult", 1, "PM latency multiplier (1, 2, 4, 16)")
	lhwpq := fs.Int("lhwpq", 0, "LH-WPQ entries per channel (0 = default 128)")
	verbose := fs.Bool("v", false, "dump all hardware counters")
	traceN := fs.Int("trace", 0, "print the last N protocol events (ASAP only)")
	profile := fs.Bool("profile", false, "print the per-thread cycle-accounting table")
	profileJSON := fs.String("profile-json", "", "write the cycle accounting as JSON to this path")
	timeline := fs.String("timeline", "", "write a Perfetto/Chrome trace.json timeline to this path")
	series := fs.String("series", "", "write the occupancy time series to this path (.json for JSON, else CSV)")
	seriesInterval := fs.Uint64("series-interval", 1000, "time-series sampling interval in cycles")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile (runtime/pprof) to this path")
	memProfile := fs.String("memprofile", "", "write a heap profile taken at exit to this path")
	seed := fs.Int64("seed", 0, "workload RNG seed (0 = default 42)")
	checkpointEvery := fs.Uint64("checkpoint-every", 0, "take a state snapshot every N cycles (0 = off)")
	checkpointFile := fs.String("checkpoint-file", "", "write the last snapshot to this path (requires -checkpoint-every)")
	resumeFrom := fs.String("resume-from", "", "resume: replay to the snapshot at this path, verify digests, continue (requires -checkpoint-every matching the original run)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case workload.ByName(*bench) == nil:
		fmt.Fprintf(stderr, "asapsim: unknown benchmark %q\n", *bench)
		return 2
	case !slices.Contains(schemeNames, *scheme):
		fmt.Fprintf(stderr, "asapsim: unknown scheme %q (have %s)\n", *scheme, strings.Join(schemeNames, " "))
		return 2
	case *threads < 1 || *ops < 1:
		fmt.Fprintf(stderr, "asapsim: -threads and -ops must be at least 1 (got %d, %d)\n", *threads, *ops)
		return 2
	case *checkpointFile != "" && *checkpointEvery == 0:
		fmt.Fprintln(stderr, "asapsim: -checkpoint-file requires -checkpoint-every")
		return 2
	}

	fail := func(err error) int {
		fmt.Fprintf(stderr, "asapsim: %v\n", err)
		return 1
	}
	if *cpuProfile != "" {
		stop, err := obs.StartCPUProfile(*cpuProfile)
		if err != nil {
			return fail(err)
		}
		defer stop()
	}
	if *memProfile != "" {
		defer func() {
			if err := obs.WriteHeapProfile(*memProfile); err != nil {
				fmt.Fprintf(stderr, "asapsim: %v\n", err)
			}
		}()
	}

	scale := experiment.Scale{
		Threads:      *threads,
		OpsPerThread: *ops,
		InitialItems: *items,
	}

	var buf *trace.Buffer
	printTrace := *traceN > 0
	if printTrace {
		buf = trace.NewBuffer(*traceN)
	} else if *timeline != "" {
		// The timeline wants protocol events even when none are printed.
		buf = trace.NewBuffer(1 << 16)
	}

	// Attach the observability session only when asked: the disabled path
	// must leave the run byte-identical.
	var sess *obs.Session
	var prof *obs.Profiler
	var rec *obs.Recorder
	if *profile || *profileJSON != "" || *timeline != "" {
		prof = obs.NewProfiler()
		if *timeline != "" {
			prof.EnableSpans(0)
		}
	}
	if *series != "" || *timeline != "" {
		rec = obs.NewRecorder(*seriesInterval, 0)
	}
	if prof != nil || rec != nil {
		sess = &obs.Session{Prof: prof, Rec: rec}
	}

	v := experiment.Variant{
		Scheme: *scheme,
		PMMult: *pmmult,
		LHWPQ:  *lhwpq,
		Seed:   *seed,
		Trace:  buf,
		Obs:    sess,
	}

	var res workload.Result
	switch {
	case *resumeFrom != "":
		from, err := snapshot.ReadFile(*resumeFrom)
		if err != nil {
			return fail(err)
		}
		res, err = experiment.RunResumed(v, *bench, scale, *value, *checkpointEvery, from)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "resumed     from cycle %d (digests verified)\n", from.Cycle)
	case *checkpointEvery > 0:
		var snaps []snapshot.Snap
		res, snaps = experiment.RunCheckpointed(v, *bench, scale, *value, *checkpointEvery)
		fmt.Fprintf(stdout, "checkpoints %d (every %d cycles)\n", len(snaps), *checkpointEvery)
		if *checkpointFile != "" {
			if len(snaps) == 0 {
				return fail(fmt.Errorf("run too short for a checkpoint every %d cycles", *checkpointEvery))
			}
			last := snaps[len(snaps)-1]
			if err := snapshot.WriteFile(*checkpointFile, last); err != nil {
				return fail(err)
			}
			fmt.Fprintf(stdout, "snapshot    cycle %d -> %s\n", last.Cycle, *checkpointFile)
		}
	default:
		res = experiment.Run(v, *bench, scale, *value)
	}

	fmt.Fprintf(stdout, "benchmark   %s\n", res.Benchmark)
	fmt.Fprintf(stdout, "scheme      %s\n", res.Scheme)
	fmt.Fprintf(stdout, "ops         %d\n", res.Ops)
	fmt.Fprintf(stdout, "cycles      %d\n", res.Cycles)
	fmt.Fprintf(stdout, "throughput  %.4f ops/kcycle\n", res.Throughput())
	fmt.Fprintf(stdout, "cyc/region  %.1f\n", res.CyclesPerRegion())
	fmt.Fprintf(stdout, "consistency %s\n", orOK(res.CheckErr))
	fmt.Fprintf(stdout, "region lat  p50=%d p95=%d p99=%d cycles\n", res.RegionP50, res.RegionP95, res.RegionP99)
	if printTrace {
		fmt.Fprintln(stdout, strings.Repeat("-", 40))
		fmt.Fprint(stdout, buf.String())
	}
	if *verbose {
		names := make([]string, 0, len(res.Stats))
		for k := range res.Stats {
			names = append(names, k)
		}
		sort.Strings(names)
		fmt.Fprintln(stdout, strings.Repeat("-", 40))
		for _, k := range names {
			fmt.Fprintf(stdout, "%-24s %12d\n", k, res.Stats[k])
		}
	}

	if prof != nil {
		// The exactness invariant is part of the tool's contract: every
		// thread's buckets must sum to its lifetime.
		if err := prof.Check(); err != nil {
			return fail(fmt.Errorf("profile self-check failed: %w", err))
		}
	}
	if *profile {
		fmt.Fprintln(stdout, strings.Repeat("-", 40))
		fmt.Fprint(stdout, prof.String())
	}
	if *profileJSON != "" {
		if err := writeTo(*profileJSON, prof.WriteJSON); err != nil {
			return fail(err)
		}
	}
	if *series != "" {
		write := rec.WriteCSV
		if strings.HasSuffix(*series, ".json") {
			write = rec.WriteJSON
		}
		if err := writeTo(*series, write); err != nil {
			return fail(err)
		}
	}
	if *timeline != "" {
		var events []trace.Event
		if buf != nil {
			events = buf.Events()
		}
		err := writeTo(*timeline, func(w io.Writer) error {
			return obs.WriteTimeline(w, events, prof, rec)
		})
		if err != nil {
			return fail(err)
		}
	}
	return 0
}

// writeTo creates path and streams fn into it.
func writeTo(path string, fn func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func orOK(s string) string {
	if s == "" {
		return "OK"
	}
	return s
}
