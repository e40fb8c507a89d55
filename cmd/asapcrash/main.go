// Command asapcrash sweeps the crash harness. With no subcommand it runs
// the crash-consistency sweep: a (crash point × fault mix × workload)
// matrix of power failures, each recovered through the public crash path
// and verified against the workload's invariants; -skip-validation is the
// negative control that must make it fail. "asapcrash torture" sweeps
// seeded schedules on resource-exhausted machines under the invariant
// engine and watchdog, with crash cases mixed in and seeded negative
// controls that must be caught and are shrunk to a minimal schedule.
//
// When the crash sweep's flags select exactly one case, -save FILE writes
// that case's crash state instead of sweeping it, and "asapcrash recover
// FILE" recovers the state in a separate process, as a machine powered
// back on would, printing the recovery summary or the classified
// findings that made recovery refuse.
//
// Exit codes: 0 no bad case (recover: recovered), 1 a violation,
// undiagnosed stall, harness error, missed control or unreadable crash
// state, 2 usage, 3 recovery refused on a corrupt image (recover only),
// 130 interrupted (the partial report is still written).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"

	"asap"
	"asap/internal/crashtest"
	"asap/internal/faults"
	"asap/internal/recovery"
	"asap/internal/report"
	"asap/internal/resultcache"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// plan is what one mode's flags resolve to: the cases to sweep and the
// mode-specific parts of the report.
type plan struct {
	name     string // prefix of the status lines
	cases    []crashtest.Case
	shrink   int
	seedNote string // appended to the case-count line
	controls bool   // print the negative-control tally
	save     string // crash mode: write the one case's crash state here
	ok, fail string
}

func run(args []string, stdout, stderr io.Writer) int {
	p, mode := &plan{name: "asapcrash"}, crashMode
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		switch args[0] {
		case "torture":
			p.name, mode, args = "asapcrash torture", tortureMode, args[1:]
		case "recover":
			return recoverFile(args[1:], stdout, stderr)
		default:
			fmt.Fprintf(stderr, "asapcrash: unknown subcommand %q (have: torture, recover)\n", args[0])
			return 2
		}
	}
	fs := flag.NewFlagSet(p.name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	resolve := mode(fs, p)
	workers := fs.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
	jsonPath := fs.String("json", "", "write the full JSON report to this file")
	verbose := fs.Bool("v", false, "print every non-clean outcome")
	progress := fs.Bool("progress", report.IsTerminal(stderr), "print a live progress line to stderr")
	cacheDir := fs.String("cache-dir", "", "result-cache directory: case outcomes keyed by (case, code version) are reused across sweeps")
	noCache := fs.Bool("no-cache", false, "bypass the result cache even when -cache-dir is set")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := resolve(stdout); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if p.save != "" {
		return saveCrash(p.save, p.cases, stdout, stderr)
	}

	opt := crashtest.SweepOptions{Workers: *workers, ShrinkBudget: p.shrink}
	cache, codeVersion, err := resultcache.OpenCLI(stderr, p.name, *cacheDir, *noCache)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	opt.Cache, opt.CodeVersion = cache, codeVersion

	// SIGINT/SIGTERM cancel the sweep: cases already dispatched finish,
	// the partial report is still written, and the exit status is 130.
	ctx, stopSignals := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stopSignals()
	opt.Context = ctx

	var prog *report.Progress
	if *progress {
		prog = report.NewProgress(stderr)
		opt.Reporter = prog
	}
	sum, err := crashtest.Sweep(p.cases, opt)
	if prog != nil {
		prog.Finish()
	}
	if cache != nil {
		hits, misses, _ := cache.Stats()
		fmt.Fprintf(stderr, "%s: result cache: %d hits, %d misses (%s)\n", p.name, hits, misses, *cacheDir)
	}
	if sum == nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	interrupted := err != nil

	fmt.Fprintf(stdout, "%s: %d cases%s\n", p.name, sum.Total, p.seedNote)
	verdicts := make([]string, 0, len(sum.Counts))
	for v := range sum.Counts {
		verdicts = append(verdicts, string(v))
	}
	sort.Strings(verdicts)
	for _, v := range verdicts {
		fmt.Fprintf(stdout, "  %-10s %d\n", v, sum.Counts[crashtest.Verdict(v)])
	}
	if p.controls {
		fmt.Fprintf(stdout, "  controls: %d caught, %d missed\n", sum.ControlsCaught, sum.ControlsMissed)
	}
	for _, o := range sum.Outcomes {
		printOutcome(stdout, o, *verbose)
	}

	if *jsonPath != "" {
		blob, err := json.MarshalIndent(sum, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonPath, blob, 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "writing report:", err)
			return 2
		}
		fmt.Fprintln(stdout, "report:", *jsonPath)
	}

	if interrupted {
		fmt.Fprintf(stderr, "%s: interrupted after %d case(s); partial report flushed\n", p.name, sum.Total)
		return 130
	}
	if bad := sum.Bad(); bad > 0 {
		fmt.Fprintf(stdout, p.fail+"\n", bad)
		return 1
	}
	fmt.Fprintln(stdout, p.ok)
	return 0
}

// printOutcome prints a bad case or a missed control — or, verbose, any
// case that is not clean — with its diagnosis: the invariant findings,
// the stall, and the minimal schedule (torture) or the fault events,
// shrunk when a reproducer was found (workload cases).
func printOutcome(w io.Writer, o crashtest.Outcome, verbose bool) {
	if !o.Bad() && !(verbose && o.Verdict != crashtest.VerdictClean) {
		return
	}
	fmt.Fprintf(w, "%s: %s", o.Verdict, o.Case)
	if o.Detail != "" {
		fmt.Fprintf(w, ": %s", o.Detail)
	}
	fmt.Fprintln(w)
	for _, v := range o.Violations {
		fmt.Fprintf(w, "    %s\n", v)
	}
	if o.Stall != "" {
		fmt.Fprintf(w, "    %s\n", o.Stall)
	}
	if o.Case.Preset != "" {
		if o.Shrunk != nil {
			fmt.Fprintf(w, "    minimal schedule (%d ops):\n", len(o.Shrunk.Schedule))
			for _, op := range o.Shrunk.Schedule {
				fmt.Fprintf(w, "      %s\n", op)
			}
		}
		return
	}
	events := o.Faults
	if o.Shrunk != nil {
		events = o.Shrunk.Replay
	}
	for _, ev := range events {
		fmt.Fprintf(w, "    %s\n", ev)
	}
}

// saveCrash writes the crash state of the one selected case to path and
// prints its fault events.
func saveCrash(path string, cases []crashtest.Case, stdout, stderr io.Writer) int {
	if len(cases) != 1 {
		fmt.Fprintf(stderr, "asapcrash: -save needs flags that select exactly one case; these select %d\n", len(cases))
		return 2
	}
	var buf bytes.Buffer
	events, err := crashtest.SaveCrash(cases[0], &buf)
	if err == nil {
		err = os.WriteFile(path, buf.Bytes(), 0o644)
	}
	if err != nil {
		fmt.Fprintln(stderr, "asapcrash:", err)
		return 1
	}
	fmt.Fprintf(stdout, "asapcrash: saved %s to %s (%d fault events)\n", cases[0], path, len(events))
	for _, ev := range events {
		fmt.Fprintf(stdout, "    %s\n", ev)
	}
	return 0
}

// recoverFile is "asapcrash recover FILE": it loads a crash state written
// by -save and recovers it through the public crash path.
func recoverFile(args []string, stdout, stderr io.Writer) int {
	if len(args) != 1 || strings.HasPrefix(args[0], "-") {
		fmt.Fprintln(stderr, "usage: asapcrash recover FILE")
		return 2
	}
	var rep *asap.RecoveryReport
	f, err := os.Open(args[0])
	if err == nil {
		defer f.Close()
		var cs *asap.CrashState
		if cs, err = asap.LoadCrashState(f); err == nil {
			rep, err = cs.Recover()
		}
	}
	var ce *recovery.CorruptionError
	switch {
	case errors.As(err, &ce):
		fmt.Fprintf(stdout, "recovery refused: %d unrecoverable finding(s); the image was left untouched\n", len(ce.Fatal))
		for _, c := range ce.Fatal {
			fmt.Fprintf(stdout, "    %s\n", c)
		}
		return 3
	case err != nil:
		fmt.Fprintln(stderr, "asapcrash recover:", err)
		return 1
	}
	fmt.Fprintf(stdout, "recovered: %d uncommitted regions rolled back, %d undo entries applied\n",
		rep.Uncommitted, rep.EntriesRestored)
	return 0
}

// crashMode registers the crash-consistency sweep's flags.
func crashMode(fs *flag.FlagSet, p *plan) func(io.Writer) error {
	var cfg crashtest.CrashConfig
	fs.Int64Var(&cfg.Seed, "seed", 1, "sweep seed: derives every crash point and fault decision")
	fs.IntVar(&cfg.Points, "points", 8, "crash points per (workload, mix) pair")
	fs.Uint64Var(&cfg.CrashLo, "crash-lo", 900, "earliest crash cycle (from measurement start)")
	fs.Uint64Var(&cfg.CrashHi, "crash-hi", 91000, "latest crash cycle")
	workloads := fs.String("workloads", "", "comma-separated workloads: counter, bigcounter or a Table 3 benchmark (BN,BT,CT,EO,HM,Q,RB,SS,TPCC); default "+strings.Join(crashtest.Workloads(), ","))
	mixes := fs.String("mixes", "", "semicolon-separated fault mixes, e.g. 'none;torn=0.3;drop=0.2,flip=1' (default: built-in set)")
	fs.BoolVar(&cfg.SkipValidation, "skip-validation", false, "recover without the integrity pass (negative control: expect failures)")
	fs.Uint64Var(&cfg.SnapshotEvery, "snapshot-every", 0, "boundary-kill family: land every crash on the first checkpoint boundary at or after its crash point (0 = off)")
	fs.IntVar(&p.shrink, "shrink", 32, "replay budget for minimizing each violation's fault set (0 = off)")
	fs.StringVar(&p.save, "save", "", "write the crash state of the one case the flags select to this file instead of sweeping (recover it with: asapcrash recover FILE)")
	p.ok, p.fail = "OK: zero invariant violations", "FAIL: %d violation/error case(s)"
	return func(io.Writer) (err error) {
		if *workloads != "" {
			cfg.Workloads = strings.Split(*workloads, ",")
		}
		if *mixes != "" {
			for _, s := range strings.Split(*mixes, ";") {
				mix, err := faults.ParseMix(s)
				if err != nil {
					return err
				}
				cfg.Mixes = append(cfg.Mixes, mix)
			}
		}
		p.seedNote = fmt.Sprintf(" (seed %d)", cfg.Seed)
		p.cases, err = crashtest.CrashCases(cfg)
		return err
	}
}

// tortureMode registers the torture sweep's flags.
func tortureMode(fs *flag.FlagSet, p *plan) func(io.Writer) error {
	var cfg crashtest.TortureConfig
	fs.Int64Var(&cfg.Seed, "seed", 0, "base seed (0: use ASAP_FUZZ_SEED, else 1)")
	fs.IntVar(&cfg.SeedsPerPreset, "seeds", 4, "schedule seeds per preset")
	presets := fs.String("configs", "", "comma-separated exhaustion configs (default: all of "+strings.Join(crashtest.PresetNames(), ",")+")")
	fs.IntVar(&cfg.Threads, "threads", 3, "worker threads per case")
	fs.IntVar(&cfg.Ops, "ops", 40, "operations per thread")
	fs.IntVar(&cfg.CrashPoints, "crash-points", 2, "crash cases per (config, seed) pair (-1 = none)")
	mix := fs.String("mix", "torn=0.2,drop=0.2,reorder=0.3,lhdrop=0.3,flip=1", "crash-time fault mix")
	fs.Uint64Var(&cfg.Stride, "stride", 0, "invariant-check stride in kernel steps (0 = per-case default)")
	fs.IntVar(&cfg.NegativeControls, "negative-controls", 2, "seeded commit-rule-breaking cases that must be caught (-1 = none)")
	fs.IntVar(&p.shrink, "shrink", 200, "replay budget for minimizing each violating schedule (0 = off)")
	p.controls = true
	p.ok, p.fail = "OK: zero invariant violations, zero undiagnosed stalls", "FAIL: %d bad case(s)"
	return func(stdout io.Writer) (err error) {
		if cfg.Seed == 0 {
			cfg.Seed = 1
			if env := os.Getenv("ASAP_FUZZ_SEED"); env != "" {
				if cfg.Seed, err = strconv.ParseInt(env, 10, 64); err != nil {
					return fmt.Errorf("ASAP_FUZZ_SEED=%q is not an integer: %v", env, err)
				}
			}
		}
		fmt.Fprintf(stdout, "%s: seed %d (override with -seed or ASAP_FUZZ_SEED)\n", p.name, cfg.Seed)
		if *presets != "" {
			cfg.Presets = strings.Split(*presets, ",")
		}
		if *mix != "" {
			if cfg.Mix, err = faults.ParseMix(*mix); err != nil {
				return err
			}
		}
		p.cases, err = crashtest.TortureCases(cfg)
		return err
	}
}
