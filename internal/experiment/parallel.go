package experiment

import (
	"context"

	"asap/internal/machine"
	"asap/internal/resultcache"
	"asap/internal/runner"
	"asap/internal/stats"
	"asap/internal/workload"
)

// Sweep is everything a figure runs its cells with besides the cells
// themselves. Every figure and extension is a method on it, so two sweeps
// with different pools, caches or audit cadences can run side by side.
// The zero value of each field is the plain run: serial, never cancelled,
// uncached and unaudited.
type Sweep struct {
	Scale Scale
	// Pool executes the figure's cells; nil runs them serially. Because
	// each cell builds a fresh machine, the sim kernel is
	// bit-deterministic and the pool assembles results in submission
	// order, every table is byte-identical at any pool width.
	Pool *runner.Pool
	// Ctx, once cancelled, stops the figure dispatching further cells, and
	// the figure panics with the cancellation error (callers recover it
	// the same way they recover consistency failures). nil never cancels.
	Ctx context.Context
	// Cache memoizes cells across runs. It is used only with a non-empty
	// CodeVersion, which is folded into every key so results computed by
	// different code never collide (resolve it with
	// resultcache.CodeVersion).
	Cache       *resultcache.Store
	CodeVersion string
	// CheckpointEvery, when non-zero, attaches an audit-mode checkpointer
	// to every cell: boundary digests are taken every CheckpointEvery
	// cycles, recorded and discarded. Boundaries are scheduling-neutral,
	// so output is unchanged (TestCheckpointingIsOutputNeutral). An
	// audited cell always runs: it is never served from the cache.
	CheckpointEvery uint64
}

// runSpec describes one cell: benchmark bench under variant v at the
// given scale and value size, on the default machine. A custom cell
// departs from that recipe through edit or benches, and is cached only
// under an explicit cacheKey.
type runSpec struct {
	v          Variant
	bench      string
	scale      Scale
	valueBytes int
	// label overrides the auto-built "bench/scheme" part of the job label.
	label string
	// edit, when non-nil, changes the cell's machine and workload configs.
	edit func(*machine.Config, *workload.Config)
	// benches, when non-nil, replaces bench: they co-run on one machine.
	benches []workload.Benchmark
	// cacheKey makes a custom cell cacheable: it must encode every input
	// that edit and benches bake in. A custom cell with a nil cacheKey
	// always executes; a standard cell derives its key (see key).
	cacheKey *resultcache.Key
}

// custom reports whether the cell departs from the standard recipe.
func (s runSpec) custom() bool { return s.edit != nil || s.benches != nil }

// cell is the standard cell of bench under v at the sweep's scale with
// 64 B values, labelled label ("" labels it bench/scheme).
func (sw Sweep) cell(v Variant, bench, label string) runSpec {
	return runSpec{v: v, bench: bench, scale: sw.Scale, valueBytes: 64, label: label}
}

// grid runs a figure's rows × cols matrix of cells, cell(r, c) building
// each, and returns the results by row. Cells are dispatched row by row
// as one batch.
func (sw Sweep) grid(figure string, rows, cols int, cell func(r, c int) runSpec) [][]workload.Result {
	specs := make([]runSpec, 0, rows*cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			specs = append(specs, cell(r, c))
		}
	}
	flat := sw.runAll(figure, specs)
	out := make([][]workload.Result, rows)
	for r := range out {
		out[r], flat = flat[:cols:cols], flat[cols:]
	}
	return out
}

// runAll fans specs across the sweep's pool and returns results in spec
// order. A panic inside any job (a stall, a consistency-check failure) is
// re-raised here, preserving Run's serial semantics for callers. One
// failing run, or a cancelled context, stops the remaining dispatches
// instead of running out the matrix. Cells with a key are memoized in the
// sweep's cache; a panicking cell is never stored. The JSON codec is exact
// for every field figures reduce (integer counters, sorted map keys),
// which keeps warm output byte-identical.
func (sw Sweep) runAll(figure string, specs []runSpec) []workload.Result {
	pool, ctx := sw.Pool, sw.Ctx
	if pool == nil {
		pool = runner.New(1)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	jobs := make([]runner.Job[workload.Result], len(specs))
	for i, s := range specs {
		label := s.label
		if label == "" {
			label = s.bench + "/" + s.v.Scheme
		}
		jobs[i] = runner.Job[workload.Result]{Label: figure + "/" + label, Run: func() workload.Result {
			res, _ := s.run(sw.CheckpointEvery, nil)
			return res
		}}
		// Without a code version there is no way to invalidate across code
		// changes: refuse to cache.
		if k := s.key(); k != nil && sw.Cache != nil && sw.CodeVersion != "" {
			cached, store := resultcache.MemoJSON[workload.Result](sw.Cache, k.Field("codeversion", sw.CodeVersion).Sum())
			jobs[i].Store = store
			if sw.CheckpointEvery == 0 {
				jobs[i].Cached = cached
			}
		}
	}
	out, err := runner.CollectCtx(ctx, pool, jobs)
	if err != nil {
		panic(err)
	}
	return out
}

// cycles and pmWrites are per-cell metrics the tables reduce, beside
// Result's Throughput and CyclesPerRegion.
func cycles(r workload.Result) float64   { return float64(r.Cycles) }
func pmWrites(r workload.Result) float64 { return float64(r.Stats[stats.PMWrites]) }

// metric returns f of each cell in row.
func metric(row []workload.Result, f func(workload.Result) float64) []float64 {
	vals := make([]float64, len(row))
	for i, r := range row {
		vals[i] = f(r)
	}
	return vals
}

// norm returns f of each cell in row divided by f of base (x ÷ base).
func norm(row []workload.Result, base workload.Result, f func(workload.Result) float64) []float64 {
	vals, b := metric(row, f), f(base)
	for i := range vals {
		vals[i] /= b
	}
	return vals
}

// inv returns f of base divided by f of each cell in row (base ÷ x).
func inv(row []workload.Result, base workload.Result, f func(workload.Result) float64) []float64 {
	vals, b := metric(row, f), f(base)
	for i := range vals {
		vals[i] = b / vals[i]
	}
	return vals
}
