package invariant

import (
	"strings"
	"testing"

	"asap/internal/cache"
	"asap/internal/core"
	"asap/internal/machine"
	"asap/internal/sim"
	"asap/internal/stats"
)

// rig builds a small machine + ASAP engine with the invariant engine
// attached at the given stride.
func rig(opt core.Options, stride uint64, mutate func(*machine.Config)) (*machine.Machine, *core.Engine, *Engine) {
	cfg := machine.DefaultConfig()
	cfg.Cores = 4
	if mutate != nil {
		mutate(&cfg)
	}
	m := machine.New(cfg)
	eng := core.NewEngine(m, opt)
	ie := Attach(m, eng, Config{Stride: stride})
	return m, eng, ie
}

// run spawns fns as initialized threads and drives the run to completion.
func run(t *testing.T, m *machine.Machine, e *core.Engine, fns ...func(th *sim.Thread)) {
	t.Helper()
	for _, fn := range fns {
		fn := fn
		m.K.Spawn("w", func(th *sim.Thread) {
			e.InitThread(th)
			fn(th)
			e.DrainBarrier(th)
		})
	}
	if err := m.K.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func storeU64(e *core.Engine, th *sim.Thread, addr, v uint64) {
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
	e.Store(th, addr, b[:])
}

func loadU64(e *core.Engine, th *sim.Thread, addr uint64) uint64 {
	var b [8]byte
	e.Load(th, addr, b[:])
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}

func TestCleanRunHasNoViolations(t *testing.T) {
	m, eng, ie := rig(core.DefaultOptions(), 1, nil)
	const slots = 8
	addrs := make([]uint64, slots)
	for i := range addrs {
		addrs[i] = m.Heap.Alloc(64, true)
	}
	// Shared-slot updates go through one mutex, as a data-race-free program
	// would: dependences then follow lock order and stay acyclic.
	var mu sim.Mutex
	worker := func(base int) func(th *sim.Thread) {
		return func(th *sim.Thread) {
			for i := 0; i < 12; i++ {
				eng.Begin(th)
				mu.Lock(th)
				a := addrs[(base+i)%slots]
				storeU64(eng, th, a, loadU64(eng, th, a)+1)
				storeU64(eng, th, addrs[(base+i+1)%slots], uint64(i))
				mu.Unlock(th)
				eng.End(th)
			}
		}
	}
	run(t, m, eng, worker(0), worker(3), worker(5))
	ie.Final()
	if err := ie.Err(); err != nil {
		t.Fatalf("clean run violated invariants: %v\nall: %v", err, ie.Violations())
	}
	if ie.Passes() == 0 {
		t.Fatal("invariant engine never ran a check pass")
	}
}

func TestEarlyLogFreeCaughtByCommitRule(t *testing.T) {
	opt := core.DefaultOptions()
	opt.UnsafeEarlyLogFree = true
	opt.DepListEntries = 2 // the issue's negative-control pressure config
	// Slow PM keeps LPO acceptance (and with it commit) far behind
	// asap_end, so the early-freed region is observed while still live.
	m, eng, ie := rig(opt, 1, func(c *machine.Config) {
		c.Mem.PMWriteCycles = 20_000
		c.Mem.IssueDelayCycles = 20_000
	})
	addr := m.Heap.Alloc(64, true)
	run(t, m, eng, func(th *sim.Thread) {
		eng.Begin(th)
		storeU64(eng, th, addr, 7)
		eng.End(th)
	})
	ie.Final()
	err := ie.Err()
	if err == nil {
		t.Fatal("UnsafeEarlyLogFree ran undetected: the commit-rule check is broken")
	}
	found := false
	for _, v := range ie.Violations() {
		if v.Check == CheckCommitRule {
			found = true
		}
	}
	if !found {
		t.Fatalf("violations %v do not include %s", ie.Violations(), CheckCommitRule)
	}
}

// TestBloomSaturationIsConservative is the satellite-3 test: a deliberately
// saturated Bloom filter (64 bits for a working set of hundreds of lines,
// with an LLC small enough to force eviction/spill/reload traffic) must
// produce conservative false positives — extra DRAM-buffer probes, extra
// dependence edges — but never a missed dependence. The owner-bloom
// invariant checks the no-false-negative direction at every step.
func TestBloomSaturationIsConservative(t *testing.T) {
	opt := core.DefaultOptions()
	opt.BloomBits = 64
	m, eng, ie := rig(opt, 1, func(c *machine.Config) {
		c.Cores = 2
		c.Caches = cache.Config{
			L1: cache.LevelConfig{Sets: 4, Ways: 2, Latency: 4},
			L2: cache.LevelConfig{Sets: 8, Ways: 2, Latency: 14},
			L3: cache.LevelConfig{Sets: 16, Ways: 2, Latency: 42},
		}
		// One shallow channel with a slow device: WPQ acceptance backs up
		// immediately, so writer regions stay uncommitted (and their
		// spilled OwnerRIDs live) while the reader probes the filter.
		c.Mem.Controllers = 1
		c.Mem.ChannelsPerMC = 1
		c.Mem.WPQEntries = 4
		c.Mem.PMWriteCycles = 2_000
	})
	const lines = 256
	addrs := make([]uint64, lines)
	for i := range addrs {
		addrs[i] = m.Heap.Alloc(64, true)
	}
	run(t, m, eng,
		func(th *sim.Thread) { // writer: blankets the working set in regions
			for i := 0; i < lines; i++ {
				eng.Begin(th)
				storeU64(eng, th, addrs[i], uint64(i))
				eng.End(th)
			}
		},
		func(th *sim.Thread) { // reader: touches everything, reloading owners
			th.Advance(10_000)
			for round := 0; round < 2; round++ {
				for i := 0; i < lines; i++ {
					eng.Begin(th)
					_ = loadU64(eng, th, addrs[i])
					eng.End(th)
				}
			}
		})
	ie.Final()
	if err := ie.Err(); err != nil {
		t.Fatalf("saturated bloom filter caused an invariant violation (missed dependence?): %v", err)
	}
	hits := m.St.Get(stats.BloomHits)
	spills := m.St.Get(stats.OwnerIDSpills)
	reloads := m.St.Get(stats.OwnerIDReloads)
	if spills == 0 || hits == 0 {
		t.Fatalf("workload did not exercise the spill path: spills=%d hits=%d", spills, hits)
	}
	if hits < reloads {
		t.Fatalf("bloom hits %d < owner reloads %d: filter reported a false negative", hits, reloads)
	}
}

func TestAttachChainsExistingObserver(t *testing.T) {
	cfg := machine.DefaultConfig()
	cfg.Cores = 2
	m := machine.New(cfg)
	eng := core.NewEngine(m, core.DefaultOptions())
	probe := &countingObserver{}
	m.K.SetObserver(probe)
	ie := Attach(m, eng, Config{Stride: 1})
	if m.K.Observer() != ie {
		t.Fatal("Attach did not install the invariant engine")
	}
	addr := m.Heap.Alloc(64, true)
	run(t, m, eng, func(th *sim.Thread) {
		eng.Begin(th)
		storeU64(eng, th, addr, 1)
		eng.End(th)
	})
	if probe.ticks == 0 || probe.advances == 0 || probe.starts == 0 {
		t.Fatalf("chained observer starved: %+v", *probe)
	}
}

type countingObserver struct {
	starts, advances, locks, ticks int
}

func (c *countingObserver) ThreadStart(*sim.Thread)          { c.starts++ }
func (c *countingObserver) ClockAdvance(*sim.Thread, uint64) { c.advances++ }
func (c *countingObserver) LockBegin(*sim.Thread)            { c.locks++ }
func (c *countingObserver) LockEnd(*sim.Thread)              {}
func (c *countingObserver) Tick(uint64)                      { c.ticks++ }

// TestAttachedEngineChangesNoOutcome is the byte-identity gate at unit
// granularity: the same workload on two fresh machines — one bare, one
// with the invariant engine attached at stride 1 — must end at the same
// cycle with identical protocol counters and heap contents.
func TestAttachedEngineChangesNoOutcome(t *testing.T) {
	exec := func(attach bool) (uint64, map[string]int64, uint64) {
		cfg := machine.DefaultConfig()
		cfg.Cores = 4
		m := machine.New(cfg)
		eng := core.NewEngine(m, core.DefaultOptions())
		if attach {
			Attach(m, eng, Config{Stride: 1})
		}
		addr := m.Heap.Alloc(64, true)
		for w := 0; w < 3; w++ {
			w := w
			m.K.Spawn("w", func(th *sim.Thread) {
				eng.InitThread(th)
				for i := 0; i < 10; i++ {
					eng.Begin(th)
					storeU64(eng, th, addr, uint64(w*100+i))
					eng.End(th)
				}
				eng.Fence(th)
				eng.DrainBarrier(th)
			})
		}
		if err := m.K.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		counters := map[string]int64{}
		for _, key := range []string{
			stats.RegionsBegun, stats.RegionsCommitted, stats.LPOsIssued,
			stats.DPOsIssued, stats.PMWrites, stats.DepEdges, stats.Fences,
		} {
			counters[key] = m.St.Get(key)
		}
		return m.K.Now(), counters, m.Heap.ReadU64(addr)
	}
	bareCycles, bareCounters, bareVal := exec(false)
	obsCycles, obsCounters, obsVal := exec(true)
	if bareCycles != obsCycles {
		t.Fatalf("final cycle diverged: bare %d vs attached %d", bareCycles, obsCycles)
	}
	if bareVal != obsVal {
		t.Fatalf("heap contents diverged: %d vs %d", bareVal, obsVal)
	}
	for k, v := range bareCounters {
		if obsCounters[k] != v {
			t.Fatalf("counter %s diverged: bare %d vs attached %d", k, v, obsCounters[k])
		}
	}
}

func TestViolationStringAndBound(t *testing.T) {
	cfg := machine.DefaultConfig()
	m := machine.New(cfg)
	eng := core.NewEngine(m, core.DefaultOptions())
	ie := New(m, eng, Config{MaxViolations: 2})
	for i := 0; i < 5; i++ {
		ie.report(uint64(i), CheckLocks, "synthetic %d", i)
	}
	if ie.Total() != 5 {
		t.Fatalf("Total = %d, want 5", ie.Total())
	}
	if len(ie.Violations()) != 2 {
		t.Fatalf("retained %d violations, want bound 2", len(ie.Violations()))
	}
	if s := ie.Violations()[0].String(); !strings.Contains(s, CheckLocks) || !strings.Contains(s, "synthetic 0") {
		t.Fatalf("Violation.String() = %q", s)
	}
	if ie.Err() == nil {
		t.Fatal("Err() = nil with violations recorded")
	}
}
