package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// Metric is one reported number with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is what one run prints as its last line of output.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`

	// latencies (every pass's operation latencies, unscaled) and note
	// (the reference timings and unscaled pass times) are for the
	// human-readable summary only.
	latencies []float64
	note      string
}

// endToEnd are the metrics an untraced run reports, with their units.
var endToEnd = []struct{ name, unit string }{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"ops_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p95_ms", "ms"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer are the metrics a traced run reports, with their units. A
// metric a workload cannot measure (a service span on a simulator
// workload, say) is reported as 0.
var perLayer = func() []struct{ name, unit string } {
	var out []struct{ name, unit string }
	add := func(unit string, names ...string) {
		for _, n := range names {
			out = append(out, struct{ name, unit string }{n, unit})
		}
	}
	for _, l := range profileLayers {
		add("share", selfShareName(l))
	}
	for _, l := range allocLayers {
		add("share", l+".alloc_share")
	}
	add("ns", "sim.host_ns_per_kcycle")
	add("ms", "runner.cell_p50_ms")
	add("count", "runner.cells")
	add("share", "runner.busy_frac")
	add("MB", "runtime.alloc_mb")
	add("M", "runtime.mallocs_m")
	add("count", "runtime.gc_cycles")
	add("ms", "runtime.gc_pause_ms")
	add("count", "queue.journal_appends_per_job", "queue.store_puts_per_job")
	add("ms", "queue.journal_sync_ms_p50", "queue.journal_sync_ms_p95", "queue.store_sync_ms_p50")
	add("share", "queue.journal_sync_share", "queue.store_sync_share")
	add("ratio", "queue.store_dedup_ratio")
	add("MB", "queue.store_write_mb")
	add("ms", "sweep.execute_ms_p50", "sweep.observe_ms_p50")
	add("share", "sweep.execute_share", "sweep.observe_share")
	add("MB", "sweep.observe_mb_per_job")
	add("ratio", "resultcache.hit_ratio")
	add("ms", "resultcache.read_ms_p50")
	add("share", "resultcache.read_share")
	add("ms", "server.submit_ms_p50", "server.submit_ms_p95", "server.fetch_ms_p50")
	add("MB", "server.artifact_mb")
	add("ms", "asapd.cpu_ms_per_job")
	add("share", "svc.unattributed_share")
	add("s", "client.cpu_s")
	add("M", "sim.cycles_m")
	add("count", "workload.ops")
	for _, c := range countStats {
		add("count", c.metric)
	}
	add("ratio", "trace.overhead")
	add("count", "trace.samples")
	return out
}()

// passResult is one execution of a workload's fixed amount of work.
type passResult struct {
	wall, cpu time.Duration
	// ops is the number of cells or jobs the pass completed.
	ops int
	// attempted and failed count the checked operations: experiment
	// sections, cells or jobs.
	attempted, failed int
	// latencies are per-operation host times in milliseconds.
	latencies []float64
	// counts are the simulated counters per cell, which must repeat
	// exactly across passes of the same seed.
	counts map[string]cellCounts
	// layers are the per_layer metrics this pass measured.
	layers map[string]float64
	// rssMB is the working process's peak resident set during the pass.
	rssMB float64
}

// workloadRun is one workload set up for one run.
type workloadRun interface {
	// pass executes the workload's fixed work once. A traced pass
	// attaches the layer instruments.
	pass(traced bool) (passResult, error)
	// pid names the process doing the work under /proc: "self", or the
	// daemon's process ID.
	pid() string
	close() error
}

// preparer builds what every set-up of a run shares, untimed: the inputs
// and the oracle outputs are the benchmark's, not the program's. The
// set-up it returns is what setup_s times.
type preparer func(opt runOptions) (setup func() (workloadRun, error), err error)

// workloadOrder lists the workloads in the order runs interleave them.
var workloadOrder = []string{"sweep-quick", "paper-asap-2k", "paper-np-64", "service-mix"}

// workloads are the benchmark's workloads. Each is a closed, fixed amount
// of work, and each loads a different part of the program.
var workloads = map[string]preparer{
	// Every experiment at quick scale: 534 short cells, so per-cell fixed
	// costs (machine construction, allocation, GC) dominate.
	"sweep-quick": simPrepare(setupSweep),
	// Nine paper-scale ASAP cells with 2 KB regions: long regions load
	// core and memdev.
	"paper-asap-2k": simPrepare(setupPaper("ASAP", 2048, 1)),
	// 72 paper-scale NP cells with 64 B values: no persistence, so core
	// and memdev are bypassed and cache, sim and workload dominate.
	"paper-np-64": simPrepare(setupPaper("NP", 64, 8)),
	// asapd under two closed-loop clients: journal, store, result cache,
	// sweep and HTTP, which no simulator workload touches.
	"service-mix": prepareService,
}

// simPrepare adapts a simulator workload's set-up, which has nothing to
// share between set-ups.
func simPrepare(setup func(runOptions) (workloadRun, error)) preparer {
	return func(opt runOptions) (func() (workloadRun, error), error) {
		return func() (workloadRun, error) { return setup(opt) }, nil
	}
}

// runOptions configure one run of one workload.
type runOptions struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	toy      bool
	root     string // repository root
	asapd    string // asapd binary, for service-mix
	// writeCounts, when set, records the first pass's simulated counts
	// into this oracle file (paper workloads).
	writeCounts string
}

// setupReps is how many times a run sets the workload up; setup_s is the
// median, so one slow start does not decide it.
const setupReps = 3

// measure performs one run: set-up (timed several times), then passes of
// the workload's fixed work until the measured time reaches
// opt.seconds, or, traced, one untraced and one traced pass.
func measure(opt runOptions) (Result, error) {
	prepare, ok := workloads[opt.workload]
	if !ok {
		return Result{}, fmt.Errorf("unknown workload %q (have %s)", opt.workload, strings.Join(workloadOrder, ", "))
	}
	setup, err := prepare(opt)
	if err != nil {
		return Result{}, fmt.Errorf("%s: %w", opt.workload, err)
	}
	var run workloadRun
	var setups []float64
	for range setupReps {
		if run != nil {
			if err := run.close(); err != nil {
				return Result{}, err
			}
		}
		t0 := time.Now()
		r, err := setup()
		if err != nil {
			return Result{}, fmt.Errorf("%s set-up: %w", opt.workload, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		run = r
	}
	defer run.close()

	if opt.trace {
		return measureTraced(run)
	}
	// The reference kernel runs before the first pass and after every
	// pass; each pass is scaled by the mean of the two runs around it.
	refs := []time.Duration{referenceCPU()}
	var passes []passResult
	start := time.Now()
	for {
		// The peak resident set is reset before each pass, so it covers
		// the timed work and not the set-up.
		if err := resetPeakRSS(run.pid()); err != nil {
			return Result{}, err
		}
		p, err := run.pass(false)
		if err != nil {
			return Result{}, err
		}
		if p.rssMB, err = peakRSSMB(run.pid()); err != nil {
			return Result{}, err
		}
		passes = append(passes, p)
		refs = append(refs, referenceCPU())
		// Start another pass only if it should end nearer to the target
		// than stopping now does.
		est := time.Since(start).Seconds() / float64(len(passes))
		if time.Since(start).Seconds()+est/2 >= opt.seconds {
			break
		}
	}

	res := Result{Metrics: map[string]Metric{}}
	// Every metric is the median over passes of the pass's own value, so
	// a stall that hits one pass does not decide the run.
	var wall, cpu, rss, p50, p95, scales, lat []float64
	ops, scaledSum := 0, 0.0
	for i, p := range passes {
		res.Attempted += p.attempted
		res.Failed += p.failed
		if i > 0 {
			res.Failed += diffCounts(passes[0].counts, p.counts)
		}
		scale := 2 * refNominal.Seconds() / (refs[i] + refs[i+1]).Seconds()
		scales = append(scales, scale)
		wall = append(wall, p.wall.Seconds()*scale)
		cpu = append(cpu, p.cpu.Seconds()*scale)
		rss = append(rss, p.rssMB)
		p50 = append(p50, percentile(p.latencies, 50)*scale)
		p95 = append(p95, percentile(p.latencies, 95)*scale)
		lat = append(lat, p.latencies...)
		ops += p.ops
		scaledSum += p.wall.Seconds() * scale
	}
	if opt.writeCounts != "" {
		if err := writeCountsOracle(opt.writeCounts, opt.workload, passes[0].counts); err != nil {
			return Result{}, err
		}
	}
	set := func(name string, v float64) { res.Metrics[name] = Metric{Value: v, Unit: unitOf(name)} }
	set("wall_s", median(wall))
	set("cpu_s", median(cpu))
	set("ops_per_s", float64(ops)/scaledSum)
	set("latency_p50_ms", median(p50))
	set("latency_p95_ms", median(p95))
	set("peak_rss_mb", median(rss))
	// Set-up ran just before the first reference run.
	set("setup_s", median(setups)*refNominal.Seconds()/refs[0].Seconds())
	res.latencies = lat
	refSecs := make([]float64, len(refs))
	for i, r := range refs {
		refSecs[i] = r.Seconds()
	}
	res.note = fmt.Sprintf("reference kernel %.4g s of CPU (nominal %.4g s); passes scaled by %.4g; unscaled pass wall %.4g s; pass peak RSS %.4g MB",
		refSecs, refNominal.Seconds(), scales, walls(passes), rss)
	res.Correct = res.Failed == 0
	return res, nil
}

// measureTraced runs one untraced and one traced pass. Counts measured
// by either pass are merged; the traced pass must reproduce the
// untraced pass's simulated counts exactly.
func measureTraced(run workloadRun) (Result, error) {
	ref0 := referenceCPU()
	base, err := run.pass(false)
	if err != nil {
		return Result{}, err
	}
	ref1 := referenceCPU()
	traced, err := run.pass(true)
	if err != nil {
		return Result{}, err
	}
	ref2 := referenceCPU()
	res := Result{
		Attempted: base.attempted + traced.attempted,
		Failed:    base.failed + traced.failed + diffCounts(base.counts, traced.counts),
		Metrics:   map[string]Metric{},
	}
	for _, m := range perLayer {
		res.Metrics[m.name] = Metric{Value: 0, Unit: m.unit}
	}
	// Where both passes measured a metric, the untraced value stands: the
	// profiler's own cost must not leak into the runner and count metrics.
	for _, layers := range []map[string]float64{traced.layers, base.layers} {
		for k, v := range layers {
			res.Metrics[k] = Metric{Value: v, Unit: unitOf(k)}
		}
	}
	// Both passes are scaled by the reference runs around them, like the
	// passes of an untraced run.
	overhead := (traced.wall.Seconds() / (ref1 + ref2).Seconds()) / (base.wall.Seconds() / (ref0 + ref1).Seconds())
	res.Metrics["trace.overhead"] = Metric{Value: overhead - 1, Unit: "ratio"}
	res.Correct = res.Failed == 0
	return res, nil
}

func walls(ps []passResult) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = p.wall.Seconds()
	}
	return out
}

// unitOf returns the unit a metric is reported in.
func unitOf(name string) string {
	for _, m := range endToEnd {
		if m.name == name {
			return m.unit
		}
	}
	for _, m := range perLayer {
		if m.name == name {
			return m.unit
		}
	}
	panic("asapperf: metric without a unit: " + name)
}

// printHuman writes every metric of r as "workload metric value unit",
// sorted by metric name.
func printHuman(w io.Writer, workload string, r Result) {
	names := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "%s %s %.6g %s\n", workload, k, r.Metrics[k].Value, r.Metrics[k].Unit)
	}
	frac := 0.0
	if r.Attempted > 0 {
		frac = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Fprintf(w, "%s failed_frac %.6g ratio (%d of %d)\n", workload, frac, r.Failed, r.Attempted)
	if n := len(r.latencies); n > 0 {
		fmt.Fprintf(w, "%s unscaled latency n=%d p50=%.6g ms", workload, n, percentile(r.latencies, 50))
		if tail := tailPercentile(n); tail > 50 {
			fmt.Fprintf(w, " p%g=%.6g ms (the highest percentile with 10 samples beyond it)", tail, percentile(r.latencies, tail))
		}
		fmt.Fprintln(w)
	}
	if r.note != "" {
		fmt.Fprintf(w, "%s %s\n", workload, r.note)
	}
}
