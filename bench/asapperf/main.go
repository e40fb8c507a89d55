// Command asapperf is the repository's benchmark. It runs four fixed
// workloads — the quick sweep, two sets of paper-scale cells and a job
// mix against asapd — checks every output against an oracle, and reports
// end-to-end metrics; a traced run splits the time across the layers the
// work passes through. Run it from the repository root, normally through
// bench/run.sh, which builds it and asapd first.
//
// One run of one workload, ending with one JSON line:
//
//	asapperf -workload paper-np-64 -seed 3 -seconds 20 -trace 0
//
// Interleaved runs of every workload, each in its own child process,
// summarised as medians and quartiles and appended to a file:
//
//	asapperf -runs 5 -seed 1 -out runs.json
//	asapperf -runs 1 -trace 1 -out traced.json
//
// A claimed gain, checked against the parent commit's runs:
//
//	asapperf -compare parent.json change.json -claim wall_s@sweep-quick
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("asapperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run one workload: "+strings.Join(workloadOrder, ", "))
	seed := fs.Int64("seed", 1, "workload seed (consecutive runs of -runs use seed, seed+1, ...)")
	seconds := fs.Float64("seconds", 20, "measured time per run: passes of the workload repeat until it is reached")
	trace := fs.Int("trace", 0, "1: one untraced and one traced pass, reporting the per-layer metrics")
	runs := fs.Int("runs", 0, "run every workload this many times, interleaved, each in a child process")
	out := fs.String("out", "", "with -runs: append the runs to this JSON file")
	compare := fs.Bool("compare", false, "compare two -out files: -compare parent.json change.json")
	claim := fs.String("claim", "", "with -compare: the metric@workload the change claims to improve")
	asapd := fs.String("asapd", ".bench_build/asapd", "asapd binary for service-mix")
	writeCounts := fs.String("write-counts", "", "with -seed 42: record a paper workload's simulated counts into this oracle file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, err := os.Stat(quickOracle); err != nil {
		fmt.Fprintf(stderr, "asapperf: run from the repository root: %v\n", err)
		return 2
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "asapperf: -compare needs two files: parent.json change.json")
			return 2
		}
		return runCompare(fs.Arg(0), fs.Arg(1), *claim, stdout, stderr)
	case *runs > 0:
		return orchestrate(orchestration{
			runs: *runs, seed: *seed, seconds: *seconds, trace: *trace,
			out: *out, asapd: *asapd,
		}, stdout, stderr)
	case *workload != "":
		opt := runOptions{
			workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
			root: ".", asapd: *asapd, writeCounts: *writeCounts,
		}
		res, err := measure(opt)
		if err != nil {
			fmt.Fprintf(stderr, "asapperf: %v\n", err)
			return 1
		}
		printHuman(stdout, *workload, res)
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(stderr, "asapperf: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
		if !res.Correct {
			fmt.Fprintf(stderr, "asapperf: %d of %d checked operations failed\n", res.Failed, res.Attempted)
			return 1
		}
		return 0
	}
	fs.Usage()
	return 2
}
