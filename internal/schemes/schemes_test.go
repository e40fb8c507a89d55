package schemes

import (
	"bytes"
	"testing"

	"asap/internal/arch"
	"asap/internal/machine"
	"asap/internal/sim"
	"asap/internal/stats"
	"asap/internal/workload"
)

// build constructs a machine plus the named scheme.
func build(name string, mutate func(*machine.Config)) (*machine.Machine, machine.Scheme) {
	cfg := machine.DefaultConfig()
	cfg.Cores = 4
	if mutate != nil {
		mutate(&cfg)
	}
	m := machine.New(cfg)
	s, err := New(name, m, nil)
	if err != nil {
		panic(err)
	}
	return m, s
}

var allSchemes = Names()

// miniWorkload runs regions regions, each updating span distinct lines of
// a shared array plus a counter line, and returns total cycles.
func miniWorkload(m *machine.Machine, s machine.Scheme, regions, span int) uint64 {
	base := m.Heap.Alloc(uint64(64*span*4), true)
	counter := m.Heap.Alloc(64, true)
	m.K.Spawn("w", func(t *sim.Thread) {
		s.InitThread(t)
		for i := 0; i < regions; i++ {
			s.Begin(t)
			for j := 0; j < span; j++ {
				addr := base + uint64(64*((i*span+j)%(span*4)))
				var b [8]byte
				b[0] = byte(i)
				s.Store(t, addr, b[:])
			}
			var c [8]byte
			s.Load(t, counter, c[:])
			c[0]++
			s.Store(t, counter, c[:])
			t.Advance(60) // region-local compute
			s.End(t)
			t.Advance(40) // inter-region work
		}
		s.DrainBarrier(t)
	})
	m.K.MustRun()
	return m.K.Now()
}

func TestEverySchemeRunsAndCommits(t *testing.T) {
	for _, name := range allSchemes {
		t.Run(name, func(t *testing.T) {
			m, s := build(name, nil)
			miniWorkload(m, s, 20, 3)
			if got := m.St.Get(stats.RegionsBegun); got != 20 {
				t.Fatalf("regions begun = %d, want 20", got)
			}
			if got := m.St.Get(stats.RegionsCommitted); got != 20 {
				t.Fatalf("regions committed = %d, want 20", got)
			}
		})
	}
}

func TestSchemesProduceIdenticalFinalData(t *testing.T) {
	// Invariant 8 (DESIGN.md): in crash-free runs every scheme leaves the
	// same architectural memory contents.
	var want []byte
	for _, name := range allSchemes {
		m, s := build(name, nil)
		base := m.Heap.Alloc(64*8, true)
		m.K.Spawn("w", func(t *sim.Thread) {
			s.InitThread(t)
			for i := 0; i < 16; i++ {
				s.Begin(t)
				var b [8]byte
				b[0] = byte(i * 3)
				s.Store(t, base+uint64(64*(i%8)), b[:])
				s.End(t)
			}
			s.DrainBarrier(t)
		})
		m.K.MustRun()
		got := make([]byte, 64*8)
		m.Heap.Read(base, got)
		if want == nil {
			want = got
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s diverged from NP at byte %d: %d != %d", name, i, got[i], want[i])
			}
		}
	}
}

// TestCommittedStoresReachPM: after DrainBarrier, every line a committed
// region stored holds its Heap bytes in PM, at every value size. Each
// region writes its slot twice, so a DPO of the first value can still be
// in flight when the second lands. A DPO issued while a multi-line store
// yielded used to copy lines the store had not yet written
// (machine.Store), and HWUndo marked a line clean when a DPO issued
// before the line's rewrite completed.
func TestCommittedStoresReachPM(t *testing.T) {
	for _, name := range allSchemes[1:] { // NP persists nothing
		for _, size := range []int{64, 128, 512, 2048} {
			m, s := build(name, nil)
			base := m.Heap.Alloc(uint64(8*size), true)
			m.K.Spawn("w", func(t *sim.Thread) {
				s.InitThread(t)
				for i := 0; i < 40; i++ {
					s.Begin(t)
					for _, v := range []int{i + 1, i + 101} {
						s.Store(t, base+uint64(size*(i%8)), bytes.Repeat([]byte{byte(v)}, size))
					}
					s.End(t)
				}
				s.DrainBarrier(t)
			})
			m.K.MustRun()
			stale, heap := 0, make([]byte, arch.LineSize)
			for off := uint64(0); off < uint64(8*size); off += arch.LineSize {
				m.Heap.ReadLineInto(arch.LineOf(base+off), heap)
				if !bytes.Equal(m.Fabric.PM().Read(arch.LineOf(base+off)), heap) {
					stale++
				}
			}
			if stale != 0 {
				t.Errorf("%s at %d B: %d of %d slot lines stale in PM", name, size, stale, 8*size/arch.LineSize)
			}
		}
	}
}

func TestPerformanceOrdering(t *testing.T) {
	// The paper's Figure 7 shape: SW slowest, hardware synchronous-commit
	// schemes in between, ASAP close to NP.
	cycles := map[string]uint64{}
	for _, name := range allSchemes {
		m, s := build(name, nil)
		cycles[name] = miniWorkload(m, s, 200, 4)
	}
	if !(cycles["SW"] > cycles["HWUndo"] && cycles["SW"] > cycles["HWRedo"]) {
		t.Errorf("SW should be slowest: %v", cycles)
	}
	if !(cycles["HWUndo"] > cycles["ASAP"] && cycles["HWRedo"] > cycles["ASAP"]) {
		t.Errorf("synchronous HW schemes should be slower than ASAP: %v", cycles)
	}
	if cycles["ASAP"] < cycles["NP"] {
		t.Errorf("ASAP cannot beat NP: %v", cycles)
	}
	// ASAP within a modest factor of NP (paper: 0.96x).
	if float64(cycles["ASAP"]) > 1.30*float64(cycles["NP"]) {
		t.Errorf("ASAP too far from NP: ASAP=%d NP=%d", cycles["ASAP"], cycles["NP"])
	}
	// SW-DPOOnly sits between NP and full SW (Figure 1).
	if !(cycles["SW-DPOOnly"] > cycles["NP"] && cycles["SW-DPOOnly"] < cycles["SW"]) {
		t.Errorf("Figure 1 ordering violated: %v", cycles)
	}
}

func TestTrafficOrdering(t *testing.T) {
	// Figure 9b shape: ASAP generates the least PM write traffic, SW the
	// most, the HW baselines in between.
	traffic := map[string]int64{}
	for _, name := range []string{"SW", "HWUndo", "HWRedo", "ASAP"} {
		m, s := build(name, nil)
		miniWorkload(m, s, 300, 4)
		traffic[name] = m.St.Get(stats.PMWrites)
	}
	if !(traffic["ASAP"] < traffic["HWUndo"] && traffic["ASAP"] < traffic["HWRedo"] && traffic["ASAP"] < traffic["SW"]) {
		t.Errorf("ASAP should have least PM traffic: %v", traffic)
	}
	if !(traffic["SW"] > traffic["HWUndo"]) {
		t.Errorf("SW should out-write HWUndo: %v", traffic)
	}
}

func TestLatencySensitivityShape(t *testing.T) {
	// Figure 10 shape: scaling PM latency 16x hurts HWUndo far more than
	// ASAP (relative to each scheme's own 1x run).
	slowdown := func(name string) float64 {
		base, bs := build(name, nil)
		c1 := miniWorkload(base, bs, 120, 4)
		slow, ss := build(name, func(c *machine.Config) { c.Mem.PMLatencyMult = 16 })
		c16 := miniWorkload(slow, ss, 120, 4)
		return float64(c16) / float64(c1)
	}
	asap := slowdown("ASAP")
	undo := slowdown("HWUndo")
	if asap > undo {
		t.Errorf("ASAP (%.2fx) should be less latency-sensitive than HWUndo (%.2fx)", asap, undo)
	}
}

func TestHWUndoEndIsSynchronous(t *testing.T) {
	// With acceptance throttled, HWUndo's End must wait while ASAP's End
	// must not.
	endTime := func(name string) uint64 {
		m, s := build(name, func(c *machine.Config) {
			c.Mem.Controllers, c.Mem.ChannelsPerMC = 1, 1
			c.Mem.WPQEntries = 1
			c.Mem.PMWriteCycles = 3000
		})
		base := m.Heap.Alloc(64*4, true)
		var at uint64
		m.K.Spawn("w", func(t *sim.Thread) {
			s.InitThread(t)
			s.Begin(t)
			for j := 0; j < 3; j++ {
				var b [8]byte
				s.Store(t, base+uint64(64*j), b[:])
			}
			s.End(t)
			at = t.Now()
			s.DrainBarrier(t)
		})
		m.K.MustRun()
		return at
	}
	undo := endTime("HWUndo")
	asap := endTime("ASAP")
	if undo < 3000 {
		t.Errorf("HWUndo End returned at %d; should wait for throttled accepts", undo)
	}
	if asap > 3000 {
		t.Errorf("ASAP End returned at %d; should not wait", asap)
	}
}

func TestHWRedoRedirectPenalty(t *testing.T) {
	m, s := build("HWRedo", nil)
	redo := s.(*HWRedo)
	line := arch.LineAddr(m.Heap.Alloc(64, true))
	redo.redirect[line] = true
	var withPenalty, withoutPenalty uint64
	m.K.Spawn("w", func(t *sim.Thread) {
		s.InitThread(t)
		start := t.Now()
		var b [8]byte
		s.Load(t, uint64(line), b[:])
		withPenalty = t.Now() - start
		delete(redo.redirect, line)
		start = t.Now()
		s.Load(t, uint64(line), b[:])
		withoutPenalty = t.Now() - start
	})
	m.K.MustRun()
	if withPenalty <= withoutPenalty {
		t.Fatalf("redirected read (%d) should cost more than normal (%d)", withPenalty, withoutPenalty)
	}
}

func TestMultithreadedSchemesAgree(t *testing.T) {
	// Three threads increment a shared lock-protected counter under every
	// scheme; the final value must always be exact.
	for _, name := range allSchemes {
		m, s := build(name, nil)
		counter := m.Heap.Alloc(64, true)
		var mu sim.Mutex
		for w := 0; w < 3; w++ {
			m.K.Spawn("w", func(t *sim.Thread) {
				s.InitThread(t)
				for i := 0; i < 25; i++ {
					mu.Lock(t)
					s.Begin(t)
					var b [8]byte
					s.Load(t, counter, b[:])
					b[0]++
					s.Store(t, counter, b[:])
					s.End(t)
					mu.Unlock(t)
				}
				s.DrainBarrier(t)
			})
		}
		m.K.MustRun()
		got := make([]byte, 8)
		m.Heap.Read(counter, got)
		if got[0] != 75 {
			t.Fatalf("%s: counter = %d, want 75", name, got[0])
		}
	}
}

// envFor and runBench let scheme tests drive Table 3 benchmarks without
// importing the workload package's test helpers.
func envFor(m *machine.Machine, s machine.Scheme) *workload.Env {
	return &workload.Env{M: m, S: s}
}

func runBench(env *workload.Env, name string) string {
	b := workload.ByName(name)
	res := workload.Run(env, []workload.Benchmark{b}, workload.Config{
		ValueBytes: 64, InitialItems: 64, Threads: 3, OpsPerThread: 40, Seed: 5,
	})
	return res.CheckErr
}
