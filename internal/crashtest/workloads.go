package crashtest

import (
	"errors"
	"fmt"
	"io"

	"asap"
	"asap/internal/core"
	"asap/internal/faults"
	"asap/internal/machine"
	"asap/internal/sim"
	"asap/internal/snapshot"
	"asap/internal/workload"
)

// machineConfig is the fixed machine for every workload case: small
// enough to run hundreds of cases quickly, slow enough PM that crash
// points land inside long uncommitted windows.
func machineConfig() machine.Config {
	cfg := machine.DefaultConfig()
	cfg.Cores = 4
	cfg.Mem.Controllers, cfg.Mem.ChannelsPerMC = 1, 2
	cfg.Mem.WPQEntries = 8
	cfg.Mem.PMWriteCycles = 900
	return cfg
}

// workloadConfig is the fixed pre-crash workload shape.
func workloadConfig(seed int64, crashed func(start uint64)) workload.Config {
	return workload.Config{
		ValueBytes:     64,
		InitialItems:   16,
		Threads:        3,
		OpsPerThread:   40,
		Seed:           seed,
		SetupInRegions: true,
		MeasureStarted: crashed,
	}
}

// runWorkload runs a workload case: the pre-crash run, then the shared
// post-crash step with the structure's own Check on the recovered image,
// then a reboot on the recovered image that must let the workload
// continue.
func runWorkload(c Case, out *Outcome) {
	b, pf, err := crashWorkload(c)
	if err != nil {
		out.Verdict, out.Detail = VerdictError, err.Error()
		return
	}
	pub := pf.recoverAndCheck(out, b.Check)
	if pub == nil {
		return
	}
	// Reboot on the recovered image and keep going: recovery must leave a
	// machine the workload can actually continue on.
	sysCfg := asap.DefaultConfig()
	sysCfg.Cores = 2
	sysCfg.MemoryControllers, sysCfg.ChannelsPerMC = 1, 1
	sys2, err := asap.NewSystemFromCrash(sysCfg, pub)
	if err != nil {
		// A recovered line outside the persistent window is recovery's
		// fault, not the harness's.
		out.Verdict = VerdictError
		if errors.Is(err, asap.ErrLineNotPersistent) {
			out.Verdict = VerdictViolation
		}
		out.Detail = "reboot: " + err.Error()
		return
	}
	// The crashed run may have died holding the structure's lock, so
	// the rebooted machine re-checks it through Check, which takes none.
	// A striped counter first runs fresh operations on a value copy with
	// a fresh mutex.
	problem := runPost(sys2, c.Seed+1, func(ctx *Ctx) string {
		check := b
		if sc, ok := b.(*stripeCounter); ok {
			reborn := &stripeCounter{name: sc.name, lanes: sc.lanes, slots: sc.slots, total: sc.total}
			for i := 0; i < 6; i++ {
				reborn.Op(ctx, i)
			}
			check = reborn
		}
		return check.Check(ctx.LoadU64)
	})
	if problem != "" {
		out.Verdict, out.Detail = VerdictViolation, "after reboot: "+problem
		return
	}
	out.passed()
}

// SaveCrash runs a workload case up to its power failure and writes the
// crash state to w: the bytes the sweep hands to asap.LoadCrashState, so
// a separate process can recover them. It returns the injected events.
func SaveCrash(c Case, w io.Writer) ([]faults.Event, error) {
	if c.Preset != "" {
		return nil, fmt.Errorf("crashtest: cannot save torture case %s", c)
	}
	_, pf, err := crashWorkload(c)
	if err != nil {
		return nil, err
	}
	return pf.save(w)
}

// crashWorkload is a workload case's pre-crash run: the named structure
// through the public workload path, with the power failure armed at the
// case's crash point. The same instance serves the image check and the
// reboot afterwards, because the structure's cell addresses live in it.
func crashWorkload(c Case) (workload.Benchmark, *powerFailure, error) {
	b, err := newWorkload(c.Workload)
	if err != nil {
		return nil, nil, err
	}

	m := machine.New(machineConfig())
	e := core.NewEngine(m, core.DefaultOptions())
	pf := armPowerFailure(c, m, e)

	env := &workload.Env{M: m, S: e}
	var wcfg workload.Config
	if c.SnapshotEvery > 0 {
		// Boundary-kill family: the crash fires from the checkpointer's
		// own boundary callback, after the state digest is taken — the
		// worst-case instant for a checkpoint publisher.
		var measuredStart uint64
		started := false
		ck := &machine.Checkpointer{
			M: m, Scheme: e,
			Identity: c.String(), Seed: c.Seed,
			Every: c.SnapshotEvery,
			OnBoundary: func(s snapshot.Snap) bool {
				if !started || s.Cycle < measuredStart+c.CrashAt {
					return true
				}
				pf.crash()
				return false
			},
		}
		ck.Arm()
		wcfg = workloadConfig(c.Seed, func(start uint64) {
			measuredStart, started = start, true
		})
	} else {
		wcfg = workloadConfig(c.Seed, func(start uint64) {
			m.K.Schedule(start+c.CrashAt, pf.crash)
		})
	}
	func() {
		defer func() { _ = recover() }() // a halt mid-run may strand the driver
		workload.Run(env, []workload.Benchmark{b}, wcfg)
	}()
	return b, pf, nil
}

// Workloads lists the default crash-consistency workloads by name: the two
// striped counters and the paper's Q benchmark (the highest cross-region
// dependence rate of Table 3). Every Table 3 benchmark name is accepted
// too.
func Workloads() []string { return []string{"counter", "bigcounter", "Q"} }

// newWorkload builds a fresh instance of the named workload: a striped
// counter, or a Table 3 benchmark by its paper abbreviation.
func newWorkload(name string) (workload.Benchmark, error) {
	switch name {
	case "counter":
		return &stripeCounter{name: "counter", lanes: 1}, nil
	case "bigcounter":
		// Nine first-writes per region (8 lanes + the total) guarantee
		// every region closes a 7-entry log record, exercising the
		// checked-header path that open records never reach.
		return &stripeCounter{name: "bigcounter", lanes: 8}, nil
	}
	if b := workload.ByName(name); b != nil {
		return b, nil
	}
	return nil, fmt.Errorf("crashtest: unknown workload %q (have counter, bigcounter and the Table 3 benchmarks)", name)
}

// stripeCounter is a striped counter with a reconciliation total: each
// operation picks a slot, writes value+1 to every lane line of the slot,
// and increments the grand total. Two invariants must survive any crash:
// all lanes of a slot agree (regions are atomic), and the slot values sum
// to the total (recovery lands on a happens-before-consistent prefix).
type stripeCounter struct {
	name  string
	lanes int

	mu    sim.Mutex
	slots []uint64 // lane-0 address of each slot; lane i at +64*i
	total uint64
}

// Name implements workload.Benchmark.
func (sc *stripeCounter) Name() string { return sc.name }

// Setup implements workload.Benchmark.
func (sc *stripeCounter) Setup(c *Ctx, cfg workload.Config) {
	slots := cfg.InitialItems
	if slots <= 0 {
		slots = 8
	}
	sc.slots = make([]uint64, slots)
	for i := range sc.slots {
		sc.slots[i] = c.Alloc(64 * sc.lanes)
		for l := 0; l < sc.lanes; l++ {
			c.StoreU64(sc.slots[i]+64*uint64(l), 0)
		}
	}
	sc.total = c.Alloc(64)
	c.StoreU64(sc.total, 0)
}

// Op implements workload.Benchmark.
func (sc *stripeCounter) Op(c *Ctx, i int) {
	sc.mu.Lock(c.T)
	c.Begin()
	slot := sc.slots[c.Key(uint64(len(sc.slots)))]
	v := c.LoadU64(slot) + 1
	for l := 0; l < sc.lanes; l++ {
		c.StoreU64(slot+64*uint64(l), v)
	}
	c.StoreU64(sc.total, c.LoadU64(sc.total)+1)
	c.End()
	sc.mu.Unlock(c.T)
}

// Check implements workload.Benchmark.
func (sc *stripeCounter) Check(read func(uint64) uint64) string {
	sum := uint64(0)
	for i, slot := range sc.slots {
		v := read(slot)
		for l := 1; l < sc.lanes; l++ {
			if got := read(slot + 64*uint64(l)); got != v {
				return fmt.Sprintf("%s: slot %d lane %d = %d, lane 0 = %d (torn region)", sc.name, i, l, got, v)
			}
		}
		sum += v
	}
	if total := read(sc.total); sum != total {
		return fmt.Sprintf("%s: slot sum %d != total %d (non-prefix state)", sc.name, sum, total)
	}
	return ""
}

// Ctx aliases the workload context so the benchmark implementations above
// read naturally.
type Ctx = workload.Ctx

// runPost spawns one thread on the rebooted system, lets body operate on
// the recovered structures, and returns its verdict. A panic or a stall
// (a reboot that deadlocks or livelocks) anywhere in the rebooted
// machine is itself a finding, not a harness crash or a clean pass.
func runPost(sys *asap.System, seed int64, body func(c *Ctx) string) (problem string) {
	defer func() {
		if p := recover(); p != nil {
			problem = fmt.Sprintf("post-recovery run panicked: %v", p)
		}
	}()
	m := sys.Machine()
	scheme := sys.SchemeImpl()
	env := &workload.Env{M: m, S: scheme}
	m.K.Spawn("post", func(t *sim.Thread) {
		scheme.InitThread(t)
		c := workload.NewCtx(env, t, seed)
		if msg := body(c); msg != "" {
			problem = msg
			return
		}
		scheme.DrainBarrier(t)
	})
	if err := m.K.Run(); err != nil && problem == "" {
		problem = "post-recovery run stalled: " + err.Error()
	}
	return problem
}
