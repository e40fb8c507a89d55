package experiment

import (
	"context"

	"asap/internal/machine"
	"asap/internal/resultcache"
	"asap/internal/runner"
	"asap/internal/workload"
)

// pool executes every figure's (variant × benchmark) matrix. The default
// is a serial pool, which preserves the seed behaviour exactly;
// cmd/asapbench swaps in a wider one via SetPool. Because each Run builds
// a fresh machine and the sim kernel is bit-deterministic, and because
// the pool assembles results in submission order, every table is
// byte-identical regardless of the pool width.
var pool = runner.New(1)

// SetPool installs the worker pool used by all figure runners. A nil
// pool restores the serial default. Not safe to call while figures run.
func SetPool(p *runner.Pool) {
	if p == nil {
		p = runner.New(1)
	}
	pool = p
}

// Pool returns the currently installed pool.
func Pool() *runner.Pool { return pool }

// runCtx gates figure fan-out: once it is cancelled, runAll stops
// dispatching further runs. Background by default, so figures behave
// exactly as before unless a caller opts in via SetContext.
var runCtx = context.Background()

// SetContext installs the context consulted by every figure runner. A
// cancelled context makes the current figure stop dispatching new runs
// and panic with the cancellation error (callers recover it the same way
// they recover consistency failures). nil restores the background
// context. Not safe to call while figures run; like SetPool it is
// package state, so callers running figures from several goroutines must
// serialize (cmd/asapbench and internal/sweep both do).
func SetContext(ctx context.Context) {
	if ctx == nil {
		ctx = context.Background()
	}
	runCtx = ctx
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

// runAll fans specs across the pool and returns results in spec order.
// A panic inside any job (a stall, a consistency-check failure) is
// re-raised here, preserving Run's serial semantics for callers. One
// failing run, or a cancelled package context, stops the remaining
// dispatches instead of running out the matrix. Cells with a key are
// memoized in the installed cell cache; a panicking cell is never stored.
// The JSON codec is exact for every field figures reduce (integer
// counters, sorted map keys), which keeps warm output byte-identical.
func runAll(figure string, specs []runSpec) []workload.Result {
	jobs := make([]runner.Job[workload.Result], len(specs))
	for i, s := range specs {
		label := s.label
		if label == "" {
			label = s.bench + "/" + s.v.Scheme
		}
		jobs[i] = runner.Job[workload.Result]{Label: figure + "/" + label, Run: func() workload.Result {
			res, _ := s.run(checkpointEvery, nil)
			return res
		}}
		if k := s.key(); k != nil && cellCache != nil {
			key := k.Field("codeversion", cacheCodeVersion).Sum()
			jobs[i].Cached, jobs[i].Store = resultcache.MemoJSON[workload.Result](cellCache, key)
		}
	}
	out, err := runner.CollectCtx(runCtx, pool, jobs)
	if err != nil {
		panic(err)
	}
	return out
}
