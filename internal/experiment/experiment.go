// Package experiment regenerates every table and figure of the paper's
// evaluation (§7): each runner builds fresh machines, executes the Table 3
// benchmarks under the relevant schemes, and reduces the counters to the
// series the paper plots. Output tables mirror the paper's axes so shapes
// can be compared directly; EXPERIMENTS.md records paper-vs-measured.
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
// value size, on a fresh machine. When SetCheckpointEvery has armed audit
// mode, the run carries a checkpointer whose boundary digests are recorded
// and discarded — scheduling-neutral, so output is unchanged (enforced by
// TestCheckpointingIsOutputNeutral).
func Run(v Variant, bench string, scale Scale, valueBytes int) workload.Result {
	res, _ := runWithCheckpointer(v, bench, scale, valueBytes, checkpointEvery, nil)
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

// runCell runs benchmark b on a new cell of v and mc and then releases
// the cell's machine (see machine.Release) unless the run stalled.
func runCell(v Variant, mc machine.Config, b workload.Benchmark, cfg workload.Config) workload.Result {
	m, s := newCell(v, mc)
	res := workload.Run(&workload.Env{M: m, S: s}, b, cfg)
	if res.Stall == nil {
		m.Release()
	}
	return res
}

// runWithCheckpointer is Run's full-control form: a non-zero every attaches
// a machine.Checkpointer (returned so callers can read its Snaps), and
// onBoundary, when non-nil, decides at each boundary whether to continue
// (false halts the kernel at the boundary — partial state, no Check run).
func runWithCheckpointer(v Variant, bench string, scale Scale, valueBytes int,
	every uint64, onBoundary func(snapshot.Snap) bool) (workload.Result, *machine.Checkpointer) {
	m, s := newCell(v, machine.DefaultConfig())

	if v.Obs != nil {
		m.K.SetObserver(v.Obs)
		if v.Obs.Prof != nil {
			if sp, ok := s.(interface{ SetProfiler(*obs.Profiler) }); ok {
				sp.SetProfiler(v.Obs.Prof)
			}
		}
		if v.Obs.Rec != nil {
			WireGauges(v.Obs.Rec, m, s)
		}
	}

	b := workload.ByName(bench)
	if b == nil {
		panic("experiment: unknown benchmark " + bench)
	}
	cfg := workload.Config{
		ValueBytes:   valueBytes,
		InitialItems: scale.InitialItems,
		Threads:      scale.Threads,
		OpsPerThread: scale.OpsPerThread,
		Seed:         v.seed(),
	}

	var ck *machine.Checkpointer
	if every > 0 {
		ck = &machine.Checkpointer{
			M:          m,
			Identity:   runIdentity(v, bench, scale, valueBytes),
			Seed:       v.seed(),
			Every:      every,
			OnBoundary: onBoundary,
		}
		if sa, ok := s.(machine.StateAppender); ok {
			ck.Scheme = sa
		}
		ck.Arm()
	}

	res := workload.Run(&workload.Env{M: m, S: s}, b, cfg)
	if m.K.Halted() {
		// A boundary callback stopped the run (resume replay or crash
		// injection): the result is intentionally partial, and the
		// benchmark's Check never ran.
		return res, ck
	}
	if res.Stall != nil {
		// Panic with the error value itself: runner.Collect wraps worker
		// panics in a *PanicError whose Unwrap exposes it, so callers can
		// still errors.As their way to the *sim.StallError diagnosis.
		panic(res.Stall)
	}
	if ck == nil && v.Obs == nil {
		// The run finished and no checkpointer or observer reads the
		// machine any more.
		m.Release()
	}
	if res.CheckErr != "" {
		panic(fmt.Sprintf("experiment: %s under %s left inconsistent state: %s",
			bench, v.Scheme, res.CheckErr))
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

// Col returns the value at (rowName, colName), or NaN.
func (t *Table) Col(rowName, colName string) float64 {
	ci := -1
	for i, c := range t.Columns {
		if c == colName {
			ci = i
		}
	}
	if ci < 0 {
		return math.NaN()
	}
	for _, r := range t.Rows {
		if r.Name == rowName && ci < len(r.Values) {
			return r.Values[ci]
		}
	}
	return math.NaN()
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
