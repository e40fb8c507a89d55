package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"asap/internal/experiment"
	"asap/internal/runner"
	"asap/internal/stats"
	"asap/internal/sweep"
	"asap/internal/workload"
)

// Files the simulator workloads check their output against, relative to
// the repository root.
const (
	quickOracle  = "docs/experiments-quickscale.txt"
	countsOracle = "bench/asapperf/testdata/paper-counts-seed42.json"
	oracleSeed   = 42
)

// simWidth is the worker-pool width of the simulator workloads: two
// workers, or one on a single-CPU machine.
func simWidth() int { return min(2, runtime.GOMAXPROCS(0)) }

// cellCounts are one cell's simulated counters. They depend only on the
// model and the cell's inputs, so any change means the model changed.
type cellCounts map[string]int64

// countStats are the simulated counters reported per layer, beside the
// cycle and operation totals.
var countStats = []struct{ metric, stat string }{
	{"cache.l1_misses", stats.L1Misses},
	{"cache.l3_misses", stats.L3Misses},
	{"cache.evictions", stats.Evictions},
	{"memdev.pm_writes", stats.PMWrites},
	{"memdev.stall_wpq", stats.WPQStalls},
	{"memdev.stall_lhwpq", stats.LHWPQStalls},
	{"core.lpo_issued", stats.LPOsIssued},
	{"core.dpo_issued", stats.DPOsIssued},
	{"core.lpo_dropped", stats.LPOsDropped},
	{"core.dpo_coalesced", stats.DPOsCoalesce},
	{"core.dep_edges", stats.DepEdges},
}

func countsOf(r workload.Result) cellCounts {
	c := cellCounts{"cycles": int64(r.Cycles), "ops": r.Ops}
	for _, s := range countStats {
		c[s.stat] = r.Stats[s.stat]
	}
	return c
}

// diffCounts returns how many cells of a are missing from b or have
// different counts there.
func diffCounts(a, b map[string]cellCounts) int {
	n := 0
	for label, ca := range a {
		if cb, ok := b[label]; !ok || !maps.Equal(ca, cb) {
			n++
		}
	}
	return n
}

// simTimed runs fn as one pass and fills in the pass's wall and CPU
// time. Untraced, it also records the Go runtime's allocation and GC
// work; traced, it takes a CPU profile and records the layer shares.
func simTimed(p *passResult, traced bool, fn func() error) error {
	run := func() error {
		c0, t0 := selfCPU(), time.Now()
		err := fn()
		p.wall, p.cpu = time.Since(t0), selfCPU()-c0
		return err
	}
	if traced {
		layers, err := profiled(run)
		p.layers = layers
		return err
	}
	m0 := readMem()
	err := run()
	p.layers = memDelta(m0, readMem())
	return err
}

// addCellLayers records the runner's per-cell log as per-operation
// latencies and as the runner and simulator per_layer metrics.
func addCellLayers(p *passResult, cells []stats.JobMetrics, width int) {
	var busy time.Duration
	var cycles, ops float64
	for _, c := range cells {
		p.latencies = append(p.latencies, float64(c.WallNS)/1e6)
		busy += c.Wall()
		cycles += float64(c.Cycles)
		ops += float64(c.Ops)
	}
	p.ops = len(cells)
	p.layers["runner.cells"] = float64(len(cells))
	p.layers["runner.cell_p50_ms"] = percentile(p.latencies, 50)
	p.layers["runner.busy_frac"] = busy.Seconds() / (float64(width) * p.wall.Seconds())
	p.layers["sim.cycles_m"] = cycles / 1e6
	p.layers["workload.ops"] = ops
	if cycles > 0 {
		p.layers["sim.host_ns_per_kcycle"] = float64(p.cpu.Nanoseconds()) / (cycles / 1000)
	}
}

// inProcess is the part of workloadRun shared by the simulator
// workloads, which run in this process and hold nothing to release.
type inProcess struct{}

func (inProcess) pid() string  { return "self" }
func (inProcess) close() error { return nil }

// sweepRun is sweep-quick: the quick-scale sweep of every experiment,
// the exact work of `asapbench -experiment all`.
type sweepRun struct {
	inProcess
	names    []string
	oracle   []byte            // expected output of the whole sweep
	sections map[string][]byte // expected output per experiment
	width    int
}

func setupSweep(opt runOptions) (workloadRun, error) {
	oracle, err := os.ReadFile(filepath.Join(opt.root, quickOracle))
	if err != nil {
		return nil, err
	}
	s := &sweepRun{names: []string{"all"}, oracle: oracle, sections: splitSections(oracle), width: simWidth()}
	if opt.toy {
		s.names = []string{"ablation-structs"}
		s.oracle = s.sections["ablation-structs"]
	}
	// One experiment first, so the timed passes do not pay for
	// first-touch of code and heap.
	_, err = sweep.Execute(context.Background(), sweep.Spec{Experiments: []string{"fig1"}},
		io.Discard, sweep.Options{Pool: runner.New(s.width)})
	return s, err
}

func (s *sweepRun) pass(traced bool) (passResult, error) {
	var p passResult
	log := &stats.JobLog{}
	pool := runner.New(s.width)
	pool.SetMetrics(log)
	var out bytes.Buffer
	var results []sweep.ExpResult
	err := simTimed(&p, traced, func() error {
		var err error
		results, err = sweep.Execute(context.Background(), sweep.Spec{Experiments: s.names}, &out, sweep.Options{Pool: pool})
		return err
	})
	if err != nil {
		return p, err
	}
	got := map[string][]byte{s.names[0]: out.Bytes()}
	if s.names[0] == "all" {
		got = splitSections(out.Bytes())
	}
	for _, r := range results {
		p.attempted++
		if r.Error != "" || !bytes.Equal(got[r.Name], s.sections[r.Name]) {
			p.failed++
		}
	}
	if p.failed == 0 && !bytes.Equal(out.Bytes(), s.oracle) {
		p.failed++ // banners or stray bytes outside every section
	}
	cells := log.Snapshot()
	addCellLayers(&p, cells, s.width)
	// Cell labels repeat across variants, so cells are keyed by their
	// submission order, which the runner guarantees.
	p.counts = map[string]cellCounts{}
	for i, c := range cells {
		p.counts[fmt.Sprintf("%04d %s", i, c.Label)] = cellCounts{"cycles": int64(c.Cycles), "ops": c.Ops}
	}
	return p, nil
}

// splitSections splits the output of an "all" sweep at its
// "==== name ====" banners.
func splitSections(b []byte) map[string][]byte {
	out := map[string][]byte{}
	name := ""
	for _, line := range bytes.SplitAfter(b, []byte("\n")) {
		s := strings.TrimSuffix(string(line), "\n")
		if n, ok := strings.CutPrefix(s, "==== "); ok && strings.HasSuffix(n, " ====") {
			name = strings.TrimSuffix(n, " ====")
			out[name] = []byte{}
			continue
		}
		if name != "" {
			out[name] = append(out[name], line...)
		}
	}
	return out
}

// paperCell is one benchmark run of a paper workload.
type paperCell struct {
	bench string
	seed  int64
}

func (c paperCell) label() string { return fmt.Sprintf("%s/s%d", c.bench, c.seed) }

// cellResult is a cell's outcome; it lets the runner's job log read the
// simulated cycles and operations.
type cellResult struct {
	res workload.Result
	err error
}

func (c cellResult) SimCycles() uint64 { return c.res.Cycles }
func (c cellResult) SimOps() int64     { return c.res.Ops }

// paperRun is paper-asap-2k or paper-np-64: paper-scale cells under one
// scheme and value size, fanned over a runner pool.
type paperRun struct {
	inProcess
	scheme     string
	valueBytes int
	cells      []paperCell
	oracle     map[string]cellCounts // expected counts at the oracle seed, else nil
	width      int
}

func setupPaper(scheme string, valueBytes, seeds int) func(runOptions) (workloadRun, error) {
	return func(opt runOptions) (workloadRun, error) {
		r := &paperRun{scheme: scheme, valueBytes: valueBytes, width: simWidth()}
		benches := experiment.BenchNames()
		if opt.toy {
			benches, seeds = []string{"Q"}, 1
		}
		for s := range seeds {
			for _, b := range benches {
				r.cells = append(r.cells, paperCell{bench: b, seed: opt.seed + int64(s)})
			}
		}
		if opt.seed == oracleSeed && opt.writeCounts == "" {
			all, err := readCountsOracle(filepath.Join(opt.root, countsOracle))
			if err != nil {
				return nil, err
			}
			if r.oracle = all[opt.workload]; r.oracle == nil {
				return nil, fmt.Errorf("%s has no counts for %s", countsOracle, opt.workload)
			}
		}
		// The same cells at quick scale first, so the timed passes do not
		// pay for first-touch of code and heap.
		_, _, err := r.collect(r.cells[:len(benches)], experiment.QuickScale())
		return r, err
	}
}

// collect runs cells at scale over the workload's pool and returns their
// outcomes with the runner's per-cell log.
func (r *paperRun) collect(cells []paperCell, scale experiment.Scale) ([]cellResult, []stats.JobMetrics, error) {
	jobs := make([]runner.Job[cellResult], len(cells))
	for i, c := range cells {
		jobs[i] = runner.Job[cellResult]{Label: c.label(), Run: func() cellResult {
			res, err := runCell(r.scheme, c, scale, r.valueBytes)
			return cellResult{res, err}
		}}
	}
	log := &stats.JobLog{}
	pool := runner.New(r.width)
	pool.SetMetrics(log)
	out, err := runner.Collect(pool, jobs)
	return out, log.Snapshot(), err
}

// runCell runs one cell, turning the panic experiment.Run raises for an
// inconsistent or stalled run into an error.
func runCell(scheme string, c paperCell, scale experiment.Scale, valueBytes int) (res workload.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%s under %s: %v", c.label(), scheme, r)
		}
	}()
	return experiment.Run(experiment.Variant{Scheme: scheme, Seed: c.seed}, c.bench, scale, valueBytes), nil
}

func (r *paperRun) pass(traced bool) (passResult, error) {
	var p passResult
	var out []cellResult
	var cells []stats.JobMetrics
	err := simTimed(&p, traced, func() error {
		var err error
		out, cells, err = r.collect(r.cells, experiment.FullScale())
		return err
	})
	if err != nil {
		return p, err
	}
	addCellLayers(&p, cells, r.width)
	p.counts = map[string]cellCounts{}
	totals := map[string]float64{}
	for i, c := range r.cells {
		p.attempted++
		if out[i].err != nil {
			fmt.Fprintln(os.Stderr, "asapperf:", out[i].err)
			p.failed++
			continue
		}
		counts := countsOf(out[i].res)
		p.counts[c.label()] = counts
		if r.oracle != nil && !maps.Equal(counts, r.oracle[c.label()]) {
			fmt.Fprintf(os.Stderr, "asapperf: %s counts differ from %s\n", c.label(), countsOracle)
			p.failed++
		}
		for _, s := range countStats {
			totals[s.metric] += float64(counts[s.stat])
		}
	}
	for k, v := range totals {
		p.layers[k] = v
	}
	return p, nil
}

func readCountsOracle(path string) (map[string]map[string]cellCounts, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var all map[string]map[string]cellCounts
	if err := json.Unmarshal(b, &all); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return all, nil
}

// writeCountsOracle records one workload's per-cell counts into the
// oracle file, keeping the other workloads' entries.
func writeCountsOracle(path, workload string, counts map[string]cellCounts) error {
	all, err := readCountsOracle(path)
	if errors.Is(err, os.ErrNotExist) {
		all, err = map[string]map[string]cellCounts{}, nil
	}
	if err != nil {
		return err
	}
	all[workload] = counts
	b, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
