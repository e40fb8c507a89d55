package recovery

import (
	"encoding/binary"
	"testing"

	"asap/internal/arch"
	"asap/internal/core"
	"asap/internal/machine"
	"asap/internal/sim"
)

// crashRig runs a counter-and-marker workload on ASAP and crashes at the
// given cycle. Each atomic region increments a shared persistent counter
// to v and writes marker[v] = v on its own line — so after recovery the
// image must describe an exact prefix: counter == C, markers 1..C set,
// markers > C zero.
type crashRig struct {
	m       *machine.Machine
	e       *core.Engine
	counter uint64
	markers uint64 // base of maxInc marker lines
	maxInc  int
}

func newCrashRig(threads, incsPerThread int, slow bool) *crashRig {
	cfg := machine.DefaultConfig()
	cfg.Cores = 4
	if slow {
		cfg.Mem.Controllers, cfg.Mem.ChannelsPerMC = 1, 2
		cfg.Mem.WPQEntries = 4
		cfg.Mem.PMWriteCycles = 2500
	}
	m := machine.New(cfg)
	e := core.NewEngine(m, core.DefaultOptions())
	rig := &crashRig{
		m: m, e: e,
		counter: m.Heap.Alloc(64, true),
		maxInc:  threads * incsPerThread,
	}
	rig.markers = m.Heap.Alloc(uint64(64*(rig.maxInc+1)), true)

	var mu sim.Mutex
	for w := 0; w < threads; w++ {
		m.K.Spawn("w", func(t *sim.Thread) {
			e.InitThread(t)
			for i := 0; i < incsPerThread; i++ {
				mu.Lock(t)
				e.Begin(t)
				var b [8]byte
				e.Load(t, rig.counter, b[:])
				v := binary.LittleEndian.Uint64(b[:]) + 1
				binary.LittleEndian.PutUint64(b[:], v)
				e.Store(t, rig.counter, b[:])
				e.Store(t, rig.markers+64*v, b[:])
				e.End(t)
				mu.Unlock(t)
				t.Advance(25)
			}
			e.DrainBarrier(t)
		})
	}
	return rig
}

// verifyPrefix checks the atomic-durability invariant on the recovered
// image and returns the recovered counter value.
func (r *crashRig) verifyPrefix(t *testing.T, cs *core.CrashState) uint64 {
	t.Helper()
	img := cs.Image
	c := binary.LittleEndian.Uint64(img.Read(arch.LineOf(r.counter))[:8])
	if c > uint64(r.maxInc) {
		t.Fatalf("recovered counter %d exceeds max %d", c, r.maxInc)
	}
	for v := uint64(1); v <= uint64(r.maxInc); v++ {
		line := arch.LineOf(r.markers + 64*v)
		got := binary.LittleEndian.Uint64(img.Read(line)[:8])
		if v <= c && got != v {
			t.Fatalf("counter=%d but marker[%d]=%d: increment half-applied", c, v, got)
		}
		if v > c && got != 0 {
			t.Fatalf("counter=%d but marker[%d]=%d present: rollback missed it", c, v, got)
		}
	}
	return c
}

func TestRecoveryAtManyCrashPoints(t *testing.T) {
	// Sweep crash times across the run; every point must recover to a
	// consistent prefix. This is the paper's Figure 2b guarantee.
	sawPartial := false
	for _, crashAt := range []uint64{500, 1500, 3000, 5000, 8000, 12000, 20000, 35000, 60000} {
		rig := newCrashRig(3, 8, true)
		var cs *core.CrashState
		rig.m.K.Schedule(crashAt, func() { cs = rig.e.Crash() })
		rig.m.K.MustRun()
		if cs == nil {
			// The run finished before the crash point: still verify.
			cs = rig.e.Crash()
		}
		if rig.e.ActiveRegions() > 0 {
			sawPartial = true
		}
		rep, err := Recover(cs)
		if err != nil {
			t.Fatalf("crash@%d: %v", crashAt, err)
		}
		c := rig.verifyPrefix(t, cs)
		t.Logf("crash@%d: counter=%d uncommitted=%d restored=%d scanned=%d",
			crashAt, c, len(rep.Uncommitted), rep.EntriesRestored, rep.RecordsScanned)
	}
	if !sawPartial {
		t.Fatal("no crash point caught uncommitted regions; test too weak")
	}
}

func TestRecoveryUndoesInReverseHappensBefore(t *testing.T) {
	// Single thread, slow persists: crash with several chained regions
	// uncommitted. Each writes the SAME line; recovery must restore the
	// value from before the oldest uncommitted region.
	cfg := machine.DefaultConfig()
	cfg.Cores = 2
	cfg.Mem.Controllers, cfg.Mem.ChannelsPerMC = 1, 1
	cfg.Mem.WPQEntries = 1
	cfg.Mem.PMWriteCycles = 50_000
	m := machine.New(cfg)
	e := core.NewEngine(m, core.DefaultOptions())
	x := m.Heap.Alloc(64, true)
	old := make([]byte, arch.LineSize)
	binary.LittleEndian.PutUint64(old, 100)
	m.Heap.Write(x, old) // pre-existing durable value
	m.Fabric.PM().Write(arch.LineOf(x), old)

	var cs *core.CrashState
	m.K.Spawn("w", func(t *sim.Thread) {
		e.InitThread(t)
		for i := 1; i <= 3; i++ {
			e.Begin(t)
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], uint64(100+i))
			e.Store(t, x, b[:])
			e.End(t)
		}
		cs = e.Crash()
	})
	m.K.MustRun()

	if got := e.ActiveRegions(); got == 0 {
		t.Fatal("expected uncommitted regions at crash")
	}
	rep, err := Recover(cs)
	if err != nil {
		t.Fatal(err)
	}
	got := binary.LittleEndian.Uint64(cs.Image.Read(arch.LineOf(x))[:8])
	// Regions R1..R3 all uncommitted (WPQ throttled): the recovered value
	// must be a consistent prefix: one of 100 (none durable) .. 103 minus
	// the rolled-back suffix. With everything uncommitted it must be 100.
	if got != 100 {
		t.Fatalf("recovered x = %d, want 100 (all three regions rolled back); report %+v", got, rep)
	}
	// Reverse happens-before: newest first.
	for i := 1; i < len(rep.Uncommitted); i++ {
		if rep.Uncommitted[i-1] < rep.Uncommitted[i] {
			t.Fatalf("undo order not newest-first: %v", rep.Uncommitted)
		}
	}
}

func TestRecoveryCleanShutdownIsNoop(t *testing.T) {
	rig := newCrashRig(2, 5, false)
	rig.m.K.MustRun() // run to completion, all committed
	cs := rig.e.Crash()
	rep, err := Recover(cs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Uncommitted) != 0 || rep.EntriesRestored != 0 {
		t.Fatalf("clean shutdown rolled back work: %+v", rep)
	}
	if c := rig.verifyPrefix(t, cs); c != uint64(rig.maxInc) {
		t.Fatalf("counter = %d, want %d", c, rig.maxInc)
	}
}

func TestRecoveryIgnoresStaleHeaders(t *testing.T) {
	// Run enough committed regions that the circular log wraps and reuses
	// space, leaving stale-but-valid headers of committed regions in PM;
	// then crash mid-flight. Recovery must only roll back regions present
	// in the Dependence List.
	cfg := machine.DefaultConfig()
	cfg.Cores = 2
	cfg.Mem.PMWriteCycles = 400
	m := machine.New(cfg)
	opt := core.DefaultOptions()
	opt.LogBufferBytes = 4096 // wraps quickly
	e := core.NewEngine(m, opt)
	base := m.Heap.Alloc(64*64, true)
	var cs *core.CrashState
	m.K.Spawn("w", func(t *sim.Thread) {
		e.InitThread(t)
		for i := 0; i < 60; i++ {
			e.Begin(t)
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], uint64(i+1))
			e.Store(t, base+uint64(64*(i%64)), b[:])
			e.End(t)
		}
		cs = e.Crash()
	})
	m.K.MustRun()
	rep, err := Recover(cs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.EntriesRestored > len(rep.Uncommitted)*8 {
		t.Fatalf("restored %d entries for %d uncommitted regions: stale logs replayed",
			rep.EntriesRestored, len(rep.Uncommitted))
	}
}

func TestHappensBeforeRejectsCycle(t *testing.T) {
	a, b := arch.MakeRID(0, 1), arch.MakeRID(1, 1)
	_, err := happensBefore([]core.DepSnapshot{
		{RID: a, Deps: []arch.RID{b}},
		{RID: b, Deps: []arch.RID{a}},
	})
	if err == nil {
		t.Fatal("cycle not detected")
	}
}

func TestHappensBeforeOrdersEdges(t *testing.T) {
	a, b, c := arch.MakeRID(0, 1), arch.MakeRID(0, 2), arch.MakeRID(1, 1)
	order, err := happensBefore([]core.DepSnapshot{
		{RID: c, Deps: []arch.RID{b}},
		{RID: b, Deps: []arch.RID{a}},
		{RID: a},
	})
	if err != nil {
		t.Fatal(err)
	}
	pos := map[arch.RID]int{}
	for i, r := range order {
		pos[r] = i
	}
	if !(pos[a] < pos[b] && pos[b] < pos[c]) {
		t.Fatalf("order %v violates a<b<c", order)
	}
}

func TestHappensBeforeIgnoresCommittedDeps(t *testing.T) {
	a := arch.MakeRID(0, 5)
	committed := arch.MakeRID(0, 4)
	order, err := happensBefore([]core.DepSnapshot{
		{RID: a, Deps: []arch.RID{committed}},
	})
	if err != nil || len(order) != 1 || order[0] != a {
		t.Fatalf("order=%v err=%v", order, err)
	}
}
