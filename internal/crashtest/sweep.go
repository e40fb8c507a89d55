package crashtest

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"asap/internal/faults"
	"asap/internal/resultcache"
	"asap/internal/runner"
)

// CrashConfig shapes a workload sweep: the cross product of workloads,
// fault mixes and derived crash points.
type CrashConfig struct {
	// Workloads to sweep; empty means all of Workloads().
	Workloads []string
	// Mixes to sweep; empty means DefaultMixes().
	Mixes []faults.Mix
	// Seed derives every crash point and per-case fault seed.
	Seed int64
	// Points is the number of crash points per (workload, mix) pair
	// (0 = 8; negative is an error).
	Points int
	// CrashLo/CrashHi bound the crash cycle, measured from the start of
	// the measured phase; points spread log-uniformly between them.
	CrashLo, CrashHi uint64
	// SkipValidation runs every case without recovery's integrity pass.
	SkipValidation bool
	// SnapshotEvery, when non-zero, makes every case a boundary-kill: the
	// crash lands on the first checkpoint boundary at or after the drawn
	// crash point (see Case.SnapshotEvery).
	SnapshotEvery uint64
}

// DefaultMixes is the standard sweep mixture set: the no-fault control,
// each fault class alone, and a combined load.
func DefaultMixes() []faults.Mix {
	return []faults.Mix{
		{},
		{TornPct: 0.3},
		{DropPct: 0.3},
		{ReorderPct: 0.5},
		{BitFlips: 1},
		{LHDropPct: 0.5},
		{TornPct: 0.2, DropPct: 0.2, ReorderPct: 0.3, BitFlips: 1},
	}
}

// CrashCases materializes the workload sweep's case list
// deterministically from the configuration: same config, same cases.
func CrashCases(cfg CrashConfig) ([]Case, error) {
	workloads := cfg.Workloads
	if len(workloads) == 0 {
		workloads = Workloads()
	}
	for _, w := range workloads {
		if _, err := newWorkload(w); err != nil {
			return nil, err
		}
	}
	mixes := cfg.Mixes
	if len(mixes) == 0 {
		mixes = DefaultMixes()
	}
	points := cfg.Points
	if points < 0 {
		return nil, fmt.Errorf("crashtest: negative crash point count %d", points)
	}
	if points == 0 {
		points = 8
	}
	draw, err := crashPoints(cfg.Seed, cfg.CrashLo, cfg.CrashHi, 900, 91_000)
	if err != nil {
		return nil, err
	}
	var cases []Case
	for _, w := range workloads {
		for _, mix := range mixes {
			for p := 0; p < points; p++ {
				cases = append(cases, Case{
					Workload:       w,
					CrashAt:        draw(),
					Seed:           cfg.Seed + int64(len(cases))*7919,
					Mix:            mix,
					SkipValidation: cfg.SkipValidation,
					SnapshotEvery:  cfg.SnapshotEvery,
				})
			}
		}
	}
	return cases, nil
}

// TortureConfig shapes a torture sweep: for every (preset, seed) pair one
// drain-to-completion case plus CrashPoints crash cases, and a block of
// seeded negative controls that the invariant engine is required to catch.
type TortureConfig struct {
	// Presets to sweep; empty means all of Presets().
	Presets []string
	// SeedsPerPreset is the number of schedule seeds per preset (0 = 4).
	// A negative SeedsPerPreset, Threads or Ops is an error.
	SeedsPerPreset int
	// Seed is the base seed; every case seed derives from it.
	Seed int64
	// Threads/Ops shape each generated schedule (0 = 3 threads, 0 = 40 ops).
	Threads, Ops int
	// CrashPoints is the number of crash cases per (preset, seed) pair
	// (0 = 2); crash cycles spread log-uniformly in [CrashLo, CrashHi].
	CrashPoints      int
	CrashLo, CrashHi uint64
	// Mix is the crash-time fault mixture.
	Mix faults.Mix
	// Stride overrides the invariant-check stride (0 = per-case default).
	Stride uint64
	// NegativeControls is the number of seeded commit-rule-breaking cases
	// (0 = 2; negative to disable). Each must come back as a violation.
	NegativeControls int
}

// TortureCases materializes the torture sweep's case list
// deterministically from the configuration: same config, same cases.
func TortureCases(cfg TortureConfig) ([]Case, error) {
	if len(cfg.Presets) == 0 {
		cfg.Presets = PresetNames()
	}
	for _, p := range cfg.Presets {
		if _, err := presetByName(p); err != nil {
			return nil, err
		}
	}
	if cfg.SeedsPerPreset < 0 || cfg.Threads < 0 || cfg.Ops < 0 {
		return nil, fmt.Errorf("crashtest: negative torture count (seeds %d, threads %d, ops %d)",
			cfg.SeedsPerPreset, cfg.Threads, cfg.Ops)
	}
	if cfg.SeedsPerPreset == 0 {
		cfg.SeedsPerPreset = 4
	}
	if cfg.Threads == 0 {
		cfg.Threads = 3
	}
	if cfg.Ops == 0 {
		cfg.Ops = 40
	}
	if cfg.CrashPoints == 0 {
		cfg.CrashPoints = 2
	}
	if cfg.NegativeControls == 0 {
		cfg.NegativeControls = 2
	}
	draw, err := crashPoints(cfg.Seed, cfg.CrashLo, cfg.CrashHi, 800, 120_000)
	if err != nil {
		return nil, err
	}
	var cases []Case
	for _, p := range cfg.Presets {
		for s := 0; s < cfg.SeedsPerPreset; s++ {
			// The drain-to-completion case, then the crash cases.
			for cp := 0; cp <= max(cfg.CrashPoints, 0); cp++ {
				c := Case{Preset: p, Seed: cfg.Seed + int64(len(cases))*7919, Threads: cfg.Threads, Ops: cfg.Ops, Stride: cfg.Stride}
				if cp > 0 {
					c.CrashAt, c.Mix = draw(), cfg.Mix
				}
				cases = append(cases, c)
			}
		}
	}
	// The negative controls run under a 2-entry Dependence List with the
	// commit rule deliberately weakened.
	for n := 0; n < cfg.NegativeControls; n++ {
		cases = append(cases, Case{
			Preset: "dep2", Seed: cfg.Seed + int64(len(cases))*7919,
			Threads: cfg.Threads, Ops: min(cfg.Ops, 12),
			NegativeControl: true,
		})
	}
	return cases, nil
}

// crashPoints returns a seeded draw of crash cycles spread log-uniformly
// over [lo, hi), after zero bounds take the given defaults. An empty
// window is an error rather than a silent fallback.
func crashPoints(seed int64, lo, hi, defLo, defHi uint64) (func() uint64, error) {
	if lo == 0 {
		lo = defLo
	}
	if hi == 0 {
		hi = defHi
	}
	if hi <= lo {
		return nil, fmt.Errorf("crashtest: empty crash window: crash-hi %d <= crash-lo %d", hi, lo)
	}
	rng := rand.New(rand.NewSource(seed))
	span := float64(hi) / float64(lo)
	return func() uint64 { return uint64(float64(lo) * math.Pow(span, rng.Float64())) }, nil
}

// SweepOptions shapes how a case list runs.
type SweepOptions struct {
	// Workers sizes the runner pool (0 = GOMAXPROCS).
	Workers int
	// Reporter, when non-nil, receives per-case progress callbacks from
	// the pool (the CLI wires a live progress line through this).
	Reporter runner.Reporter
	// ShrinkBudget, when > 0, bounds the replays spent minimizing each
	// violation (see Shrink).
	ShrinkBudget int
	// Cache, when non-nil (and CodeVersion non-empty), memoizes case
	// outcomes across sweeps keyed by the case's canonical encoding and
	// the code version. Shrunk reproducers are never cached — shrinking
	// reruns post-cache so the budget always applies to this sweep.
	Cache       *resultcache.Store
	CodeVersion string
	// Context, when non-nil, lets the caller cancel the sweep: cases
	// already dispatched finish, nothing further starts, and Sweep
	// returns the partial summary alongside the context's error. Signal
	// handlers use this to flush partial reports on SIGINT/SIGTERM.
	Context context.Context
}

// Summary aggregates a sweep.
type Summary struct {
	Total    int             `json:"total"`
	Counts   map[Verdict]int `json:"counts"`
	Outcomes []Outcome       `json:"outcomes"`
	// ControlsCaught/ControlsMissed track the seeded negative controls:
	// caught means the invariant engine returned a violation verdict.
	ControlsCaught int `json:"controls_caught"`
	ControlsMissed int `json:"controls_missed"`
}

// Bad counts the outcomes that must fail a CI gate (see Outcome.Bad).
func (s *Summary) Bad() int {
	bad := 0
	for _, o := range s.Outcomes {
		if o.Bad() {
			bad++
		}
	}
	return bad
}

// Sweep runs a case list on a worker pool and aggregates the outcomes,
// shrinking each violation when a budget is given. Outcomes keep the
// order of cases. A cancelled opt.Context stops dispatching: the summary
// covers only the cases that actually ran, and the context's error is
// returned alongside it so callers can flush the partial result and still
// report the interruption.
func Sweep(cases []Case, opt SweepOptions) (*Summary, error) {
	ctx := opt.Context
	if ctx == nil {
		ctx = context.Background()
	}
	jobs := make([]runner.Job[Outcome], len(cases))
	for i, c := range cases {
		c := c
		jobs[i] = runner.Job[Outcome]{Label: c.String(), Run: func() Outcome { return RunCase(c) }}
		if opt.Cache != nil && opt.CodeVersion != "" {
			if key, err := resultcache.CaseKey("crashcase.v2", c, opt.CodeVersion); err == nil {
				jobs[i].Cached, jobs[i].Store = resultcache.MemoJSON[Outcome](opt.Cache, key)
			}
		}
	}
	pool := runner.New(opt.Workers)
	if opt.Reporter != nil {
		pool.SetReporter(opt.Reporter)
	}
	outcomes, err := runner.CollectCtx(ctx, pool, jobs)
	if err != nil && ctx.Err() == nil {
		return nil, fmt.Errorf("crashtest: sweep: %w", err)
	}

	// Skipped cases hold zero outcomes (empty verdict); keep only what ran.
	sum := &Summary{Counts: make(map[Verdict]int)}
	for i := range outcomes {
		if outcomes[i].Verdict == "" {
			continue
		}
		sum.Outcomes = append(sum.Outcomes, outcomes[i])
		o := &sum.Outcomes[len(sum.Outcomes)-1]
		sum.Counts[o.Verdict]++
		if o.Case.NegativeControl {
			if o.Verdict == VerdictViolation {
				sum.ControlsCaught++
			} else {
				sum.ControlsMissed++
			}
		}
		if o.Verdict == VerdictViolation && opt.ShrinkBudget > 0 {
			o.Shrunk = Shrink(*o, opt.ShrinkBudget)
		}
	}
	sum.Total = len(sum.Outcomes)
	return sum, ctx.Err()
}
