// Package experiment regenerates every table and figure of the paper's
// evaluation (§7): each runner builds fresh machines, executes the Table 3
// benchmarks under the relevant schemes, and reduces the counters to the
// series the paper plots. Output tables mirror the paper's axes so shapes
// can be compared directly; EXPERIMENTS.md records paper-vs-measured.
//
// Every figure is a method on a Sweep, which holds the scale and
// everything the cells run with: pool, context, cell cache and audit
// cadence. A figure lays its cells out as one rows × columns grid, runs
// it on the sweep's pool and reduces the results row by row. The package
// keeps no run state of its own, so sweeps with different settings may
// run at once.
package experiment

import (
	"fmt"
	"math"
	"strings"

	"asap/internal/core"
	"asap/internal/machine"
	"asap/internal/obs"
	"asap/internal/report"
	"asap/internal/schemes"
	"asap/internal/snapshot"
	"asap/internal/trace"
	"asap/internal/workload"
)

// Scale sizes the benchmark runs. Figures' shapes are stable from Quick
// upward; Full uses the kind of run a paper evaluation would.
type Scale struct {
	Threads      int
	OpsPerThread int
	InitialItems int
	Benchmarks   []string
}

// QuickScale is used by tests and the default CLI run.
func QuickScale() Scale {
	return Scale{Threads: 4, OpsPerThread: 120, InitialItems: 128, Benchmarks: BenchNames()}
}

// FullScale is the paper-style run (minutes, not seconds).
func FullScale() Scale {
	return Scale{Threads: 8, OpsPerThread: 1500, InitialItems: 2048, Benchmarks: BenchNames()}
}

// BenchNames returns the Table 3 benchmark abbreviations in paper order.
func BenchNames() []string {
	return []string{"BN", "BT", "CT", "EO", "HM", "Q", "RB", "SS", "TPCC"}
}

// Variant selects a system build for one run.
type Variant struct {
	Scheme string // NP, SW, SW-DPOOnly, HWUndo, HWRedo, ASAP, ASAP-Redo
	PMMult int    // PM latency multiplier (0 -> 1)
	LHWPQ  int    // LH-WPQ entries per channel (0 -> default 128)
	// Seed overrides the workload RNG seed (0 -> the standard 42). It is
	// a cache-key axis; the snapshot equivalence tests randomize it.
	Seed     int64
	ASAPOpts *core.Options
	// Trace, when non-nil, attaches a protocol event buffer (ASAP only).
	Trace *trace.Buffer
	// Obs, when non-nil, attaches the observability session: its profiler
	// hooks the kernel clock and the scheme's stall sites, its recorder
	// samples the occupancy gauges wired by WireGauges. Works under every
	// scheme.
	Obs *obs.Session
}

// seed resolves the variant's workload seed.
func (v Variant) seed() int64 {
	if v.Seed != 0 {
		return v.Seed
	}
	return 42
}

// Run executes one benchmark under one variant at the given scale and
// value size, on a fresh machine.
func Run(v Variant, bench string, scale Scale, valueBytes int) workload.Result {
	res, _ := runSpec{v: v, bench: bench, scale: scale, valueBytes: valueBytes}.run(0, nil)
	return res
}

// newCell builds one cell's machine from mc, with v's PM latency
// multiplier and LH-WPQ size applied, and v's scheme on it. It is the one
// place a scheme name becomes a scheme.
func newCell(v Variant, mc machine.Config) (*machine.Machine, machine.Scheme) {
	if v.PMMult > 1 {
		mc.Mem.PMLatencyMult = v.PMMult
	}
	if v.LHWPQ > 0 {
		mc.Mem.LHWPQEntries = v.LHWPQ
	}
	m := machine.New(mc)
	s, err := schemes.New(v.Scheme, m, v.ASAPOpts)
	if err != nil {
		panic("experiment: unknown scheme " + v.Scheme)
	}
	if eng, ok := s.(*core.Engine); ok && v.Trace != nil {
		eng.SetTrace(v.Trace)
	}
	return m, s
}

// run is the one cell runner: it builds the cell's machine and scheme,
// attaches the variant's observer, and runs the cell's benchmarks. A
// non-zero every attaches a machine.Checkpointer (returned so callers can
// read its Snaps), and onBoundary, when non-nil, decides at each boundary
// whether to continue (false halts the kernel at the boundary — partial
// state, no Check run). A stall or a failed Check panics.
func (s runSpec) run(every uint64, onBoundary func(snapshot.Snap) bool) (workload.Result, *machine.Checkpointer) {
	benches := s.benches
	if benches == nil {
		b := workload.ByName(s.bench)
		if b == nil {
			panic("experiment: unknown benchmark " + s.bench)
		}
		benches = []workload.Benchmark{b}
	}
	mc := machine.DefaultConfig()
	cfg := workload.Config{
		ValueBytes:   s.valueBytes,
		InitialItems: s.scale.InitialItems,
		Threads:      s.scale.Threads,
		OpsPerThread: s.scale.OpsPerThread,
		Seed:         s.v.seed(),
	}
	if s.edit != nil {
		s.edit(&mc, &cfg)
	}
	m, sch := newCell(s.v, mc)

	if o := s.v.Obs; o != nil {
		m.K.SetObserver(o)
		if o.Prof != nil {
			if sp, ok := sch.(interface{ SetProfiler(*obs.Profiler) }); ok {
				sp.SetProfiler(o.Prof)
			}
		}
		if o.Rec != nil {
			WireGauges(o.Rec, m, sch)
		}
	}

	var ck *machine.Checkpointer
	if every > 0 {
		ck = &machine.Checkpointer{
			M:          m,
			Identity:   s.identity(),
			Seed:       cfg.Seed,
			Every:      every,
			OnBoundary: onBoundary,
		}
		if sa, ok := sch.(machine.StateAppender); ok {
			ck.Scheme = sa
		}
		ck.Arm()
	}

	res := workload.Run(&workload.Env{M: m, S: sch}, benches, cfg)
	if m.K.Halted() {
		// A boundary callback stopped the run (resume replay or crash
		// injection): the result is intentionally partial, and the
		// benchmarks' Check never ran.
		return res, ck
	}
	if res.Stall != nil {
		// Panic with the error value itself: runner.Collect wraps worker
		// panics in a *PanicError whose Unwrap exposes it, so callers can
		// still errors.As their way to the *sim.StallError diagnosis.
		panic(res.Stall)
	}
	if ck == nil && s.v.Obs == nil {
		// The run finished and no checkpointer or observer reads the
		// machine any more.
		m.Release()
	}
	if res.CheckErr != "" {
		panic(fmt.Sprintf("experiment: %s under %s left inconsistent state: %s",
			res.Benchmark, s.v.Scheme, res.CheckErr))
	}
	return res, ck
}

// Table is a figure's data: one row per benchmark (plus GeoMean), one
// column per series.
type Table struct {
	Title   string
	Note    string
	Columns []string
	Rows    []Row
}

// Row is one benchmark's values across the series.
type Row struct {
	Name   string
	Values []float64
}

// AddRow appends a row.
func (t *Table) AddRow(name string, values ...float64) {
	t.Rows = append(t.Rows, Row{Name: name, Values: values})
}

// AddGeoMean appends a geometric-mean summary row over the current rows.
func (t *Table) AddGeoMean() {
	if len(t.Rows) == 0 {
		return
	}
	means := make([]float64, len(t.Columns))
	for c := range t.Columns {
		logSum, n := 0.0, 0
		for _, r := range t.Rows {
			if c < len(r.Values) && r.Values[c] > 0 {
				logSum += math.Log(r.Values[c])
				n++
			}
		}
		if n > 0 {
			means[c] = math.Exp(logSum / float64(n))
		}
	}
	t.Rows = append(t.Rows, Row{Name: "GeoMean", Values: means})
}

// ChartTitle implements report.Chartable.
func (t *Table) ChartTitle() string { return t.Title }

// ChartColumns implements report.Chartable.
func (t *Table) ChartColumns() []string { return t.Columns }

// ChartRows implements report.Chartable.
func (t *Table) ChartRows() []report.ChartRow {
	out := make([]report.ChartRow, 0, len(t.Rows))
	for _, r := range t.Rows {
		out = append(out, report.ChartRow{Name: r.Name, Values: r.Values})
	}
	return out
}

// String renders the table in aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	if t.Note != "" {
		fmt.Fprintf(&b, "  (%s)\n", t.Note)
	}
	fmt.Fprintf(&b, "%-10s", "")
	for _, c := range t.Columns {
		fmt.Fprintf(&b, "%12s", c)
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-10s", r.Name)
		for _, v := range r.Values {
			fmt.Fprintf(&b, "%12.3f", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
