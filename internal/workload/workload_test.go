package workload

import (
	"testing"

	"asap/internal/machine"
	"asap/internal/schemes"
	"asap/internal/stats"
)

func newEnv(scheme string, mutate func(*machine.Config)) *Env {
	cfg := machine.DefaultConfig()
	cfg.Cores = 4
	if mutate != nil {
		mutate(&cfg)
	}
	m := machine.New(cfg)
	s, err := schemes.New(scheme, m, nil)
	if err != nil {
		panic(err)
	}
	return &Env{M: m, S: s}
}

func smallCfg() Config {
	return Config{
		ValueBytes:   64,
		InitialItems: 64,
		Threads:      3,
		OpsPerThread: 60,
		Seed:         7,
	}
}

// stuckBench wedges its first worker forever: the run can never drain, so
// Run must come back with a Stall diagnosis instead of panicking.
type stuckBench struct{}

func (stuckBench) Name() string                     { return "STUCK" }
func (stuckBench) Setup(*Ctx, Config)               {}
func (stuckBench) Check(func(uint64) uint64) string { return "" }
func (stuckBench) Op(c *Ctx, i int) {
	c.T.WaitUntil(func() bool { return false })
}

func TestStallSurfacesInResult(t *testing.T) {
	env := newEnv("ASAP", nil)
	cfg := smallCfg()
	cfg.Threads, cfg.OpsPerThread = 2, 1
	res := Run(env, []Benchmark{stuckBench{}}, cfg)
	if res.Stall == nil {
		t.Fatal("wedged run returned no Stall diagnosis")
	}
	if len(res.Stall.Blocked) == 0 {
		t.Fatalf("stall has no blocked-thread report: %v", res.Stall)
	}
}

func TestAllBenchmarksUnderASAP(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Name(), func(t *testing.T) {
			env := newEnv("ASAP", nil)
			res := Run(env, []Benchmark{b}, smallCfg())
			if res.CheckErr != "" {
				t.Fatalf("consistency check failed: %s", res.CheckErr)
			}
			if res.Ops != 180 {
				t.Fatalf("ops = %d, want 180", res.Ops)
			}
			if res.Cycles == 0 {
				t.Fatal("no cycles measured")
			}
			begun := res.Stats[stats.RegionsBegun]
			committed := res.Stats[stats.RegionsCommitted]
			if begun == 0 || begun != committed {
				t.Fatalf("regions begun %d committed %d", begun, committed)
			}
		})
	}
}

func TestAllBenchmarksUnderEveryScheme(t *testing.T) {
	for _, scheme := range []string{"NP", "SW", "HWUndo", "HWRedo"} {
		for _, b := range All() {
			b, scheme := b, scheme
			t.Run(scheme+"/"+b.Name(), func(t *testing.T) {
				env := newEnv(scheme, nil)
				cfg := smallCfg()
				cfg.Threads, cfg.OpsPerThread = 2, 30
				res := Run(env, []Benchmark{b}, cfg)
				if res.CheckErr != "" {
					t.Fatalf("consistency check failed: %s", res.CheckErr)
				}
			})
		}
	}
}

func TestBenchmarksWith2KBValues(t *testing.T) {
	for _, name := range []string{"BN", "Q", "SS"} {
		b := ByName(name)
		env := newEnv("ASAP", nil)
		cfg := smallCfg()
		cfg.ValueBytes = 2048
		cfg.Threads, cfg.OpsPerThread = 2, 20
		cfg.InitialItems = 16
		res := Run(env, []Benchmark{b}, cfg)
		if res.CheckErr != "" {
			t.Fatalf("%s 2KB: %s", name, res.CheckErr)
		}
	}
}

func TestRunIsDeterministic(t *testing.T) {
	run := func() Result {
		env := newEnv("ASAP", nil)
		return Run(env, []Benchmark{NewQueue()}, smallCfg())
	}
	a, b := run(), run()
	if a.Cycles != b.Cycles {
		t.Fatalf("cycles differ across identical runs: %d vs %d", a.Cycles, b.Cycles)
	}
	if a.Stats[stats.PMWrites] != b.Stats[stats.PMWrites] {
		t.Fatalf("traffic differs: %d vs %d", a.Stats[stats.PMWrites], b.Stats[stats.PMWrites])
	}
}

func TestQueueHasHighDependenceRate(t *testing.T) {
	// §7.2 singles out Q for cross-region dependencies: every operation
	// touches the shared head/tail/count lines.
	envQ := newEnv("ASAP", nil)
	q := Run(envQ, []Benchmark{NewQueue()}, smallCfg())
	envSS := newEnv("ASAP", nil)
	ss := Run(envSS, []Benchmark{NewStringSwap()}, smallCfg())
	qRate := float64(q.Stats[stats.DepEdges]) / float64(q.Stats[stats.RegionsBegun])
	ssRate := float64(ss.Stats[stats.DepEdges]) / float64(ss.Stats[stats.RegionsBegun])
	if qRate <= ssRate {
		t.Fatalf("Q dependence rate (%.2f) should exceed SS (%.2f)", qRate, ssRate)
	}
}

func TestFencePeriodRunsFencesAndStaysConsistent(t *testing.T) {
	// §5.2/§6.4: with asap_fence after every region ASAP degenerates to
	// synchronous behaviour per thread. The fence-latency guarantee itself
	// is asserted in the core package (TestFenceWaitsForCommit); here we
	// check the workload plumbing: one fence per op, still consistent.
	// (Under WPQ saturation fencing shifts waiting rather than adding
	// throughput cost — the run is drain-bound either way — so total
	// cycles are not a meaningful assertion.)
	cfg := smallCfg()
	cfg.FencePeriod = 1
	env := newEnv("ASAP", nil)
	res := Run(env, []Benchmark{NewQueue()}, cfg)
	if res.CheckErr != "" {
		t.Fatalf("consistency: %s", res.CheckErr)
	}
	if got := res.Stats[stats.Fences]; got != res.Ops {
		t.Fatalf("fences = %d, want one per op (%d)", got, res.Ops)
	}
}

func TestByName(t *testing.T) {
	for _, want := range []string{"BN", "BT", "CT", "EO", "HM", "Q", "RB", "SS", "TPCC"} {
		if b := ByName(want); b == nil || b.Name() != want {
			t.Fatalf("ByName(%q) = %v", want, b)
		}
	}
	if ByName("nope") != nil {
		t.Fatal("unknown name should return nil")
	}
}

func TestThroughputAndCyclesPerRegion(t *testing.T) {
	r := Result{Cycles: 2000, Ops: 4, Stats: map[string]int64{
		stats.RegionsBegun: 4, stats.RegionCycles: 800,
	}}
	if got := r.Throughput(); got != 2 {
		t.Fatalf("Throughput = %v, want 2 ops/kcycle", got)
	}
	if got := r.CyclesPerRegion(); got != 200 {
		t.Fatalf("CyclesPerRegion = %v, want 200", got)
	}
}

// brokenCheck is a benchmark whose post-run check always fails.
type brokenCheck struct {
	Benchmark
	verdict string
}

func (b brokenCheck) Check(func(uint64) uint64) string { return b.verdict }

// TestRunCoRunsBenchmarks: several benchmarks run on one machine as one
// measured phase, and every benchmark's failed check lands in CheckErr.
func TestRunCoRunsBenchmarks(t *testing.T) {
	cfg := smallCfg()
	res := Run(newEnv("ASAP", nil), []Benchmark{NewQueue(), NewHashMap()}, cfg)
	if res.Stall != nil || res.CheckErr != "" {
		t.Fatalf("co-run failed: stall %v, check %q", res.Stall, res.CheckErr)
	}
	if want := int64(2 * cfg.Threads * cfg.OpsPerThread); res.Ops != want || res.Stats[stats.Ops] != want {
		t.Fatalf("ops = %d (counter %d), want %d", res.Ops, res.Stats[stats.Ops], want)
	}
	if res.Benchmark != "Q+HM" {
		t.Fatalf("benchmark = %q, want Q+HM", res.Benchmark)
	}

	res = Run(newEnv("NP", nil), []Benchmark{brokenCheck{NewQueue(), "q bad"}, NewEcho(), brokenCheck{NewHashMap(), "hm bad"}}, cfg)
	if res.CheckErr != "q bad; hm bad" {
		t.Fatalf("check verdicts = %q, want both failures joined", res.CheckErr)
	}
}
