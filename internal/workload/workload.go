// Package workload implements the paper's nine benchmarks (Table 3) as
// real data structures living in the simulated persistent heap, accessed
// exclusively through a persistence scheme so every load and store pays
// simulated time and participates in logging. All benchmarks are
// thread-safe: conflicting atomic regions are nested inside critical
// sections guarded by simulated locks, exactly as §4.2 prescribes. Each
// runs the paper's own operation mix: the keyed structures insert or
// update a uniformly drawn key, Q enqueues or dequeues, EO mixes puts and
// gets, SS swaps two strings, and TPCC runs New Order.
package workload

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"strings"

	"asap/internal/machine"
	"asap/internal/sim"
	"asap/internal/stats"
)

// Config parameterizes one benchmark run.
type Config struct {
	// ValueBytes is the data payload written per operation: the paper's
	// Figure 7 evaluates 64 B and 2 KB per atomic region.
	ValueBytes int
	// InitialItems pre-populates the structure before measurement.
	InitialItems int
	// Threads is the number of worker threads.
	Threads int
	// OpsPerThread is the measured operation count per worker.
	OpsPerThread int
	// Seed makes runs reproducible.
	Seed int64
	// FencePeriod, when > 0, issues an asap_fence every N operations
	// (§5.2; the paper's main runs use none).
	FencePeriod int
	// MeasureStarted, when non-nil, is called (in simulation context) the
	// moment setup has drained and measurement begins — crash-injection
	// tests use it to arm failures only once the structure is durable.
	MeasureStarted func(at uint64)
	// SetupInRegions wraps the setup phase in an atomic region so the
	// initial structure is itself persisted before measurement: required
	// by crash-injection tests (plain setup writes live in caches and may
	// never reach PM).
	SetupInRegions bool
}

// Env couples a machine with the scheme under test.
type Env struct {
	M *machine.Machine
	S machine.Scheme
}

// Ctx is one simulated thread's view of the environment: all data-structure
// code goes through it, so every access is timed and logged.
type Ctx struct {
	Env *Env
	T   *sim.Thread
	Rng *rand.Rand

	// u64 is the scratch buffer for LoadU64/StoreU64: the schemes copy
	// in and out of it synchronously, so reusing it keeps the hottest
	// workload accesses allocation-free (the array would otherwise
	// escape through the Scheme interface call on every access).
	u64 [8]byte
}

// NewCtx builds a context for thread t.
func NewCtx(env *Env, t *sim.Thread, seed int64) *Ctx {
	return &Ctx{Env: env, T: t, Rng: rand.New(rand.NewSource(seed))}
}

// Key draws a uniform key in [0, keyspace), as the paper's mixes do.
// Benchmarks use it for every measured key choice.
func (c *Ctx) Key(keyspace uint64) uint64 {
	if keyspace == 0 {
		return 0
	}
	return c.Rng.Uint64() % keyspace
}

// Alloc reserves persistent memory.
func (c *Ctx) Alloc(n int) uint64 { return c.Env.M.Heap.Alloc(uint64(n), true) }

// Free releases persistent memory. Under schemes with crash recovery the
// free defers to region commit so rollback cannot collide with reuse.
func (c *Ctx) Free(addr uint64) {
	if df, ok := c.Env.S.(machine.DeferredFreer); ok {
		df.DeferFree(c.T, addr)
		return
	}
	c.Env.M.Heap.Free(addr)
}

// Begin opens an atomic region.
func (c *Ctx) Begin() { c.Env.S.Begin(c.T) }

// End closes the atomic region.
func (c *Ctx) End() { c.Env.S.End(c.T) }

// Fence waits for the thread's regions to commit (§5.2).
func (c *Ctx) Fence() { c.Env.S.Fence(c.T) }

// LoadU64 reads a little-endian uint64 through the scheme.
func (c *Ctx) LoadU64(addr uint64) uint64 {
	c.Env.S.Load(c.T, addr, c.u64[:])
	return binary.LittleEndian.Uint64(c.u64[:])
}

// StoreU64 writes a little-endian uint64 through the scheme.
func (c *Ctx) StoreU64(addr, v uint64) {
	binary.LittleEndian.PutUint64(c.u64[:], v)
	c.Env.S.Store(c.T, addr, c.u64[:])
}

// LoadBytes reads n bytes through the scheme.
func (c *Ctx) LoadBytes(addr uint64, n int) []byte {
	buf := make([]byte, n)
	c.Env.S.Load(c.T, addr, buf)
	return buf
}

// StoreBytes writes data through the scheme.
func (c *Ctx) StoreBytes(addr uint64, data []byte) {
	c.Env.S.Store(c.T, addr, data)
}

// FillValue writes a deterministic payload of cfg.ValueBytes derived from
// tag at addr: the per-operation data body.
func (c *Ctx) FillValue(addr uint64, n int, tag uint64) {
	buf := make([]byte, n)
	for i := 0; i+8 <= n; i += 8 {
		binary.LittleEndian.PutUint64(buf[i:], tag+uint64(i))
	}
	c.StoreBytes(addr, buf)
}

// Benchmark is one Table 3 workload.
type Benchmark interface {
	// Name returns the paper's abbreviation (BN, BT, CT, EO, HM, Q, RB,
	// SS, TPCC).
	Name() string
	// Setup builds the initial structure; it runs single-threaded before
	// measurement, outside atomic regions.
	Setup(c *Ctx, cfg Config)
	// Op executes one measured operation: lock, atomic region, unlock.
	Op(c *Ctx, i int)
	// Check verifies the structure's invariants through read, returning a
	// non-empty problem description on failure. read is any 8-byte
	// reader: a live simulated thread's LoadU64 after a crash-free run,
	// or a recovered persisted image's ReadUint64 after a crash.
	Check(read func(addr uint64) uint64) string
}

// Result summarizes a measured run.
type Result struct {
	Benchmark string
	Scheme    string
	Cycles    uint64
	Ops       int64
	// Stats holds the measurement-phase-only counter deltas.
	Stats map[string]int64
	// CheckErr is the post-run invariant verdict ("" = consistent).
	CheckErr string
	// Stall is non-nil when the run never drained: the kernel's
	// forward-progress watchdog (or its deadlock detector) stopped the
	// simulation and attached its diagnosis. The measured fields are
	// meaningless in that case.
	Stall *sim.StallError
	// RegionP50/P95/P99 are core-visible region-latency percentiles in
	// cycles (upper bucket bounds), for the tail-latency analysis the
	// paper's introduction motivates.
	RegionP50, RegionP95, RegionP99 uint64
}

// Throughput returns operations per kilocycle.
func (r Result) Throughput() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Ops) / float64(r.Cycles) * 1000
}

// SimCycles implements the runner package's Measurable contract.
func (r Result) SimCycles() uint64 { return r.Cycles }

// SimOps implements the runner package's Measurable contract.
func (r Result) SimOps() int64 { return r.Ops }

// CyclesPerRegion returns the mean core-visible region latency.
func (r Result) CyclesPerRegion() float64 {
	n := r.Stats[stats.RegionsBegun]
	if n == 0 {
		return 0
	}
	return float64(r.Stats[stats.RegionCycles]) / float64(n)
}

// Run executes benches on env, all sharing one machine: single-threaded
// setup of each benchmark, then cfg.Threads workers of cfg.OpsPerThread
// operations per benchmark, then a drain barrier. Only the measured phase
// contributes to Result. Several benchmarks co-run, contending for the
// caches, WPQs and PM bandwidth: the scenario §1 gives for why traffic
// reduction matters even though persists are asynchronous.
func Run(env *Env, benches []Benchmark, cfg Config) Result {
	names := make([]string, len(benches))
	for i, b := range benches {
		names[i] = b.Name()
	}
	res := Result{Benchmark: strings.Join(names, "+"), Scheme: env.S.Name()}
	env.M.K.Spawn("driver", func(t *sim.Thread) {
		env.S.InitThread(t)
		ctx := NewCtx(env, t, cfg.Seed)
		if cfg.SetupInRegions {
			ctx.Begin()
		}
		for _, b := range benches {
			b.Setup(ctx, cfg)
		}
		if cfg.SetupInRegions {
			ctx.End()
		}
		env.S.DrainBarrier(t)

		before := env.M.St.Snapshot()
		start := t.Kernel().Now()
		if cfg.MeasureStarted != nil {
			cfg.MeasureStarted(start)
		}
		done, total := 0, len(benches)*cfg.Threads
		for bi, b := range benches {
			for w := 0; w < cfg.Threads; w++ {
				b, seed := b, cfg.Seed+int64(bi*1000+w)*7919+1
				env.M.K.Spawn("worker", func(wt *sim.Thread) {
					env.S.InitThread(wt)
					wctx := NewCtx(env, wt, seed)
					for i := 0; i < cfg.OpsPerThread; i++ {
						b.Op(wctx, i)
						*env.M.Cells.Ops++
						if cfg.FencePeriod > 0 && (i+1)%cfg.FencePeriod == 0 {
							wctx.Fence()
						}
					}
					env.S.DrainBarrier(wt)
					done++
				})
			}
		}
		t.WaitUntil(func() bool { return done == total })
		env.S.DrainBarrier(t)

		res.Cycles = t.Kernel().Now() - start
		res.Ops = int64(total * cfg.OpsPerThread)
		res.Stats = make(map[string]int64)
		for k, v := range env.M.St.Snapshot() {
			res.Stats[k] = v - before[k]
		}
		hist := env.M.St.Hist(stats.RegionLatency)
		res.RegionP50 = hist.Quantile(0.50)
		res.RegionP95 = hist.Quantile(0.95)
		res.RegionP99 = hist.Quantile(0.99)
		var verdicts []string
		for _, b := range benches {
			if msg := b.Check(ctx.LoadU64); msg != "" {
				verdicts = append(verdicts, msg)
			}
		}
		res.CheckErr = strings.Join(verdicts, "; ")
	})
	if err := env.M.K.Run(); err != nil {
		var se *sim.StallError
		if errors.As(err, &se) {
			res.Stall = se
		} else {
			res.CheckErr = err.Error()
		}
	}
	return res
}

// All returns a fresh instance of every Table 3 benchmark, in the paper's
// order.
func All() []Benchmark {
	return []Benchmark{
		NewBinaryTree(), NewBTree(), NewCTree(), NewEcho(), NewHashMap(),
		NewQueue(), NewRBTree(), NewStringSwap(), NewTPCC(),
	}
}

// ByName returns the benchmark with the paper's abbreviation, or nil.
func ByName(name string) Benchmark {
	for _, b := range All() {
		if b.Name() == name {
			return b
		}
	}
	return nil
}
