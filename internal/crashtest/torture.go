package crashtest

// Torture cases drive randomized, seeded schedules of atomic-region
// operations on machines whose ASAP structures are squeezed to their
// minimum sizes (Dependence List of 2, CL List of 1, LH-WPQ depth 1, a
// saturating Bloom filter, a two-record log buffer), with the invariant
// engine attached at step granularity, the forward-progress watchdog
// armed, and — for crash cases — the fault injector installed and a power
// failure scheduled at an arbitrary cycle.
//
// The schedules are data-race-free by construction (slots are guarded by
// striped mutexes, always acquired in stripe order), so a dependence cycle
// or stalled commit observed under them is a protocol bug, not a workload
// artifact. Transfers move value between slots inside one region, making
// "the slot values sum to the initial total" a crash-recoverable invariant
// any consistent state must satisfy.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"

	"asap/internal/cache"
	"asap/internal/core"
	"asap/internal/invariant"
	"asap/internal/machine"
	"asap/internal/sim"
	"asap/internal/stats"
)

// Schedule shape: fixed so cases serialize compactly.
const (
	// Slots is the shared persistent working set (one counter per slot).
	Slots = 24
	// Stripes is the lock-stripe count; slot i is guarded by stripe i%Stripes.
	Stripes = 4
	// InitialSlotValue funds each slot so the sum invariant is nontrivial.
	InitialSlotValue = 1000
)

// Op is one step of a torture schedule, executed by its owning thread in
// schedule order.
type Op struct {
	Thread int    `json:"t"`
	Kind   string `json:"k"`
	A      int    `json:"a,omitempty"`
	B      int    `json:"b,omitempty"`
	Arg    uint64 `json:"n,omitempty"`
}

// The op kinds.
const (
	// OpXfer moves one unit from slot A to slot B in a single region.
	OpXfer = "xfer"
	// OpRead loads slot A in a read-only region.
	OpRead = "read"
	// OpBlob writes Arg bytes to the thread's private scratch in one
	// region (multi-line records; Arg is capped at the scratch size).
	OpBlob = "blob"
	// OpSpin advances the thread clock Arg cycles outside any region.
	OpSpin = "spin"
	// OpFence executes asap_fence.
	OpFence = "fence"
)

func (o Op) String() string {
	switch o.Kind {
	case OpXfer:
		return fmt.Sprintf("t%d xfer %d->%d", o.Thread, o.A, o.B)
	case OpRead:
		return fmt.Sprintf("t%d read %d", o.Thread, o.A)
	case OpBlob:
		return fmt.Sprintf("t%d blob %dB", o.Thread, o.Arg)
	case OpSpin:
		return fmt.Sprintf("t%d spin %d", o.Thread, o.Arg)
	case OpFence:
		return fmt.Sprintf("t%d fence", o.Thread)
	}
	return fmt.Sprintf("t%d %s", o.Thread, o.Kind)
}

// Generate derives a schedule deterministically from (seed, threads, ops):
// ops operations per thread, flattened thread-major. Any subsequence of a
// generated schedule is itself a valid program (transfers preserve the slot
// sum modulo 2^64 regardless of which ops survive), which is what lets
// ddmin shrink schedules freely.
func Generate(seed int64, threads, ops int) []Op {
	rng := rand.New(rand.NewSource(seed))
	sched := make([]Op, 0, threads*ops)
	for th := 0; th < threads; th++ {
		for i := 0; i < ops; i++ {
			r := rng.Float64()
			switch {
			case r < 0.45:
				sched = append(sched, Op{Thread: th, Kind: OpXfer, A: rng.Intn(Slots), B: rng.Intn(Slots)})
			case r < 0.65:
				sched = append(sched, Op{Thread: th, Kind: OpRead, A: rng.Intn(Slots)})
			case r < 0.80:
				sched = append(sched, Op{Thread: th, Kind: OpBlob, Arg: uint64(64 * (1 + rng.Intn(7)))})
			case r < 0.92:
				sched = append(sched, Op{Thread: th, Kind: OpSpin, Arg: uint64(50 + rng.Intn(400))})
			default:
				sched = append(sched, Op{Thread: th, Kind: OpFence})
			}
		}
	}
	return sched
}

// Preset mutates a machine configuration and the engine options into one
// resource-exhaustion shape.
type Preset struct {
	Name string
	// Note explains what the preset starves.
	Note  string
	Apply func(*machine.Config, *core.Options)
}

// Presets returns the exhaustion configurations, baseline first.
func Presets() []Preset {
	return []Preset{
		{"baseline", "Table 2 sizes — the control", func(*machine.Config, *core.Options) {}},
		{"dep2", "Dependence List of 2 entries/channel: constant §5.4 stalls",
			func(_ *machine.Config, o *core.Options) { o.DepListEntries = 2 }},
		{"dep8", "Dependence List of 8: eviction pressure without total starvation",
			func(_ *machine.Config, o *core.Options) { o.DepListEntries = 8 }},
		{"cl1", "CL List of 1 entry (1 CLPtr slot): every region overflows to log-only tracking",
			func(_ *machine.Config, o *core.Options) { o.CLListEntries, o.CLPtrSlots = 1, 1 }},
		{"lhwpq1", "LH-WPQ depth 1: record open/close serializes per channel",
			func(m *machine.Config, _ *core.Options) { m.Mem.LHWPQEntries = 1 }},
		{"wpq1", "WPQ depth 1: acceptance backpressure on every persist",
			func(m *machine.Config, _ *core.Options) { m.Mem.WPQEntries = 1 }},
		{"tinybloom", "64-bit Bloom + tiny caches: owner spills, reloads, false positives",
			func(m *machine.Config, o *core.Options) {
				o.BloomBits = 64
				m.Caches = cache.Config{
					L1: cache.LevelConfig{Sets: 4, Ways: 2, Latency: 4},
					L2: cache.LevelConfig{Sets: 8, Ways: 2, Latency: 14},
					L3: cache.LevelConfig{Sets: 16, Ways: 2, Latency: 42},
				}
				m.Mem.Controllers, m.Mem.ChannelsPerMC = 1, 1
				m.Mem.WPQEntries = 4
				m.Mem.PMWriteCycles = 2_000
			}},
		{"tinylog", "two-record log buffer: overflow/Grow on nearly every region",
			func(_ *machine.Config, o *core.Options) { o.LogBufferBytes = 1024 }},
		{"squeeze", "every structure at its minimum simultaneously",
			func(m *machine.Config, o *core.Options) {
				o.DepListEntries = 2
				o.CLListEntries, o.CLPtrSlots = 1, 1
				o.BloomBits = 64
				o.LogBufferBytes = 1024
				m.Mem.LHWPQEntries = 1
				m.Mem.WPQEntries = 1
			}},
	}
}

// PresetNames returns the preset names in order.
func PresetNames() []string {
	var names []string
	for _, p := range Presets() {
		names = append(names, p.Name)
	}
	return names
}

func presetByName(name string) (Preset, error) {
	for _, p := range Presets() {
		if p.Name == name {
			return p, nil
		}
	}
	return Preset{}, fmt.Errorf("crashtest: unknown preset %q (have %v)", name, PresetNames())
}

// schedule returns the case's effective op list.
func (c Case) schedule() []Op {
	if c.Schedule != nil {
		return c.Schedule
	}
	return Generate(c.Seed, c.Threads, c.Ops)
}

// WatchdogWindow is the no-progress budget for torture runs, sized far
// above any legitimate quiet period of the squeezed configurations.
const WatchdogWindow = 500_000

// runTorture runs a torture case: the schedule on the preset's machine
// under the invariant engine and watchdog, then, for a crash case, the
// shared post-crash step with the slot-sum check.
func runTorture(c Case, out *Outcome) {
	preset, err := presetByName(c.Preset)
	if err != nil {
		out.Verdict, out.Detail = VerdictError, err.Error()
		return
	}

	mc := machine.DefaultConfig()
	mc.Cores = max(c.Threads, 1)
	opt := core.DefaultOptions()
	preset.Apply(&mc, &opt)
	if c.NegativeControl {
		opt.UnsafeEarlyLogFree = true
		// The early free is only observable while its region is still
		// uncommitted: slow the PM far past region length so commit lags
		// asap_end, and check at every step.
		mc.Mem.PMWriteCycles = 20_000
		mc.Mem.IssueDelayCycles = 20_000
	}

	m := machine.New(mc)
	eng := core.NewEngine(m, opt)
	ie := invariant.Attach(m, eng, invariant.Config{Stride: strideOf(c)})

	m.K.SetWatchdog(&sim.Watchdog{
		Window: WatchdogWindow,
		Progress: func() uint64 {
			return uint64(m.St.Get(stats.RegionsCommitted) +
				m.St.Get(stats.LPOsIssued) + m.St.Get(stats.PMWrites))
		},
		Backlog: func() int {
			n := eng.LPOsInFlight() + len(eng.LiveRegions())
			for _, ch := range m.Fabric.Channels() {
				n += ch.Occupancy() + ch.Waiters() + ch.LH().Len()
			}
			return n
		},
		Gauges: func() map[string]int {
			g := map[string]int{
				"regions.live": len(eng.LiveRegions()),
				"lpo.inflight": eng.LPOsInFlight(),
			}
			for _, ch := range m.Fabric.Channels() {
				g[fmt.Sprintf("wpq%d", ch.ID())] = ch.Occupancy()
				g[fmt.Sprintf("wpq%d.waiting", ch.ID())] = ch.Waiters()
				g[fmt.Sprintf("lhwpq%d", ch.ID())] = ch.LH().Len()
			}
			return g
		},
		Snapshot: eng.DepGraphString,
	})

	var pf *powerFailure
	if c.CrashAt > 0 {
		pf = armPowerFailure(c, m, eng)
	}

	// Shared state: slot counters, striped locks, per-thread scratch.
	slots := make([]uint64, Slots)
	for i := range slots {
		slots[i] = m.Heap.Alloc(64, true)
	}
	stripes := make([]sim.Mutex, Stripes)
	scratch := make([]uint64, max(c.Threads, 1))
	const scratchBytes = 512
	for i := range scratch {
		scratch[i] = m.Heap.Alloc(scratchBytes, true)
	}
	sched := c.schedule()
	perThread := make([][]Op, max(c.Threads, 1))
	for _, op := range sched {
		if op.Thread >= 0 && op.Thread < len(perThread) {
			perThread[op.Thread] = append(perThread[op.Thread], op)
		}
	}

	m.K.Spawn("driver", func(t *sim.Thread) {
		eng.InitThread(t)
		for _, addr := range slots {
			eng.Begin(t)
			storeU64(eng, t, addr, InitialSlotValue)
			eng.End(t)
		}
		eng.DrainBarrier(t)

		start := t.Kernel().Now()
		if pf != nil {
			m.K.Schedule(start+c.CrashAt, pf.crash)
		}
		done := 0
		for th := range perThread {
			th := th
			m.K.Spawn(fmt.Sprintf("w%d", th), func(wt *sim.Thread) {
				eng.InitThread(wt)
				runOps(eng, wt, perThread[th], slots, stripes, scratch[th], scratchBytes)
				eng.DrainBarrier(wt)
				done++
			})
		}
		t.WaitUntil(func() bool { return done == len(perThread) })
		eng.DrainBarrier(t)
	})
	runErr := m.K.Run()
	out.Cycles = m.K.Now()
	out.Regions = m.St.Get(stats.RegionsCommitted)

	// The invariant verdict comes first: a violation is the sharpest
	// finding regardless of how the run ended.
	ie.Final()
	out.Checks = ie.Passes()
	for _, v := range ie.Violations() {
		out.Violations = append(out.Violations, v.String())
	}
	if len(out.Violations) > 0 {
		out.Verdict = VerdictViolation
		out.Detail = fmt.Sprintf("%d invariant violations (%d recorded)", ie.Total(), len(out.Violations))
		if runErr != nil {
			out.Detail += "; run also stalled: " + runErr.Error()
		}
		return
	}
	if runErr != nil {
		var se *sim.StallError
		if errors.As(runErr, &se) {
			out.Verdict, out.Stall = VerdictStall, se.Error()
			out.Detail = fmt.Sprintf("%s at cycle %d: %d threads blocked", se.Kind, se.At, len(se.Blocked))
			return
		}
		out.Verdict, out.Detail = VerdictError, runErr.Error()
		return
	}

	const wantSum = uint64(Slots) * InitialSlotValue
	slotSum := func(read func(uint64) uint64) (sum uint64) {
		for _, addr := range slots {
			sum += read(addr)
		}
		return sum
	}
	if pf == nil {
		// Clean run: the functional heap must satisfy the sum invariant.
		if sum := slotSum(m.Heap.ReadU64); sum != wantSum {
			out.Verdict = VerdictViolation
			out.Detail = fmt.Sprintf("slot sum %d != initial %d after clean run", sum, wantSum)
			return
		}
		out.Verdict = VerdictClean
		return
	}
	if pf.recoverAndCheck(out, func(read func(uint64) uint64) string {
		if sum := slotSum(read); sum != wantSum {
			return fmt.Sprintf("recovered slot sum %d != initial %d (non-atomic state)", sum, wantSum)
		}
		return ""
	}) != nil {
		out.passed()
	}
}

func strideOf(c Case) uint64 {
	if c.Stride > 0 {
		return c.Stride
	}
	if c.NegativeControl {
		return 1 // never miss the seeded bug between checks
	}
	return 16
}

// runOps executes one thread's schedule slice.
func runOps(eng *core.Engine, t *sim.Thread, ops []Op, slots []uint64, stripes []sim.Mutex, scratch uint64, scratchBytes int) {
	blob := make([]byte, scratchBytes)
	for _, op := range ops {
		switch op.Kind {
		case OpXfer:
			a, b := op.A%Slots, op.B%Slots
			lockSlots(t, stripes, a, b)
			eng.Begin(t)
			va := loadU64(eng, t, slots[a])
			vb := loadU64(eng, t, slots[b])
			storeU64(eng, t, slots[a], va-1)
			if b != a {
				storeU64(eng, t, slots[b], vb+1)
			} else {
				storeU64(eng, t, slots[b], vb) // self-transfer: net zero
			}
			eng.End(t)
			unlockSlots(t, stripes, a, b)
		case OpRead:
			a := op.A % Slots
			stripes[a%Stripes].Lock(t)
			eng.Begin(t)
			_ = loadU64(eng, t, slots[a])
			eng.End(t)
			stripes[a%Stripes].Unlock(t)
		case OpBlob:
			n := int(op.Arg)
			if n <= 0 || n > scratchBytes {
				n = scratchBytes
			}
			for i := range blob[:n] {
				blob[i] = byte(op.Arg + uint64(i))
			}
			eng.Begin(t)
			eng.Store(t, scratch, blob[:n])
			eng.End(t)
		case OpSpin:
			t.Advance(op.Arg)
		case OpFence:
			eng.Fence(t)
		}
	}
}

// lockSlots acquires the stripes guarding slots a and b in stripe order —
// the global order that keeps schedules deadlock-free by construction.
func lockSlots(t *sim.Thread, stripes []sim.Mutex, a, b int) {
	sa, sb := a%Stripes, b%Stripes
	if sa > sb {
		sa, sb = sb, sa
	}
	stripes[sa].Lock(t)
	if sb != sa {
		stripes[sb].Lock(t)
	}
}

func unlockSlots(t *sim.Thread, stripes []sim.Mutex, a, b int) {
	sa, sb := a%Stripes, b%Stripes
	if sa > sb {
		sa, sb = sb, sa
	}
	if sb != sa {
		stripes[sb].Unlock(t)
	}
	stripes[sa].Unlock(t)
}

func storeU64(e *core.Engine, t *sim.Thread, addr, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	e.Store(t, addr, b[:])
}

func loadU64(e *core.Engine, t *sim.Thread, addr uint64) uint64 {
	var b [8]byte
	e.Load(t, addr, b[:])
	return binary.LittleEndian.Uint64(b[:])
}
