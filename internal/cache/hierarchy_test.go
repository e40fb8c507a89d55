package cache

import (
	"testing"

	"asap/internal/arch"
	"asap/internal/memdev"
	"asap/internal/sim"
	"asap/internal/stats"
)

// tiny returns a small hierarchy so evictions are easy to force.
func tiny(cores int, persistent func(arch.LineAddr) bool) (*stats.Set, *Hierarchy) {
	st := stats.New()
	k := sim.NewKernel()
	f := memdev.NewFabric(k, st, memdev.DefaultConfig())
	cfg := Config{
		L1: LevelConfig{Sets: 2, Ways: 2, Latency: 4},
		L2: LevelConfig{Sets: 4, Ways: 2, Latency: 14},
		L3: LevelConfig{Sets: 8, Ways: 2, Latency: 42},
	}
	if persistent == nil {
		persistent = func(arch.LineAddr) bool { return true }
	}
	return st, NewHierarchy(st, f, cores, cfg, persistent)
}

func line(i int) arch.LineAddr { return arch.LineAddr(i * arch.LineSize) }

func mustAccess(t *testing.T, h *Hierarchy, core int, l arch.LineAddr, write bool) uint64 {
	t.Helper()
	lat, _, ok := h.Access(core, l, write)
	if !ok {
		t.Fatalf("Access(%d, %v) stalled unexpectedly", core, l)
	}
	return lat
}

func TestHitLatenciesPerLevel(t *testing.T) {
	_, h := tiny(1, nil)
	l := line(0)
	first := mustAccess(t, h, 0, l, false)
	if first <= 42 {
		t.Fatalf("cold miss latency = %d, want > L3 latency", first)
	}
	if lat := mustAccess(t, h, 0, l, false); lat != 4 {
		t.Fatalf("L1 hit latency = %d, want 4", lat)
	}
}

func TestL2AndL3HitLatencies(t *testing.T) {
	_, h := tiny(1, nil)
	// L1 has 2 sets x 2 ways; lines 0,2,4 map to set 0. Fill 0 then evict
	// it from L1 by touching 2 and 4 (same L1 set, different L2/L3 sets).
	mustAccess(t, h, 0, line(0), false)
	mustAccess(t, h, 0, line(2), false)
	mustAccess(t, h, 0, line(4), false)
	if lat := mustAccess(t, h, 0, line(0), false); lat != 14 {
		t.Fatalf("L2 hit latency = %d, want 14", lat)
	}
	// A second core hits the shared L3.
	_, h2 := tiny(2, nil)
	mustAccess(t, h2, 0, line(0), false)
	if lat := mustAccess(t, h2, 1, line(0), false); lat != 42 {
		t.Fatalf("remote L3 hit latency = %d, want 42", lat)
	}
}

func TestMissCountsPMRead(t *testing.T) {
	st, h := tiny(1, func(arch.LineAddr) bool { return true })
	mustAccess(t, h, 0, line(0), false)
	if st.Get(stats.PMReads) != 1 {
		t.Fatalf("PM reads = %d, want 1", st.Get(stats.PMReads))
	}
	_, hv := tiny(1, func(arch.LineAddr) bool { return false })
	mustAccess(t, hv, 0, line(0), false)
}

func TestPBitSeededFromPageTable(t *testing.T) {
	_, h := tiny(1, func(l arch.LineAddr) bool { return l >= 1024 })
	mustAccess(t, h, 0, 0, false)
	mustAccess(t, h, 0, 1024, false)
	if h.Table().Get(0).PBit {
		t.Fatal("volatile line has PBit set")
	}
	if !h.Table().Get(1024).PBit {
		t.Fatal("persistent line missing PBit")
	}
}

func TestLLCEvictHookFires(t *testing.T) {
	_, h := tiny(1, nil)
	var evicted []EvictInfo
	h.SetEvictHook(func(e EvictInfo) { evicted = append(evicted, e) })
	// L3 has 8 sets x 2 ways; lines 0,8,16 share L3 set 0.
	mustAccess(t, h, 0, line(0), true) // dirty
	mustAccess(t, h, 0, line(8), false)
	mustAccess(t, h, 0, line(16), false) // evicts line 0
	if len(evicted) != 1 {
		t.Fatalf("evict hook fired %d times, want 1", len(evicted))
	}
	if evicted[0].Line != line(0) || !evicted[0].Dirty {
		t.Fatalf("evicted %+v, want dirty line 0", evicted[0])
	}
	if h.Present(line(0)) {
		t.Fatal("evicted line still present")
	}
}

func TestVolatileDirtyEvictionGoesToDRAM(t *testing.T) {
	st, h := tiny(1, func(arch.LineAddr) bool { return false })
	mustAccess(t, h, 0, line(0), true)
	mustAccess(t, h, 0, line(8), false)
	mustAccess(t, h, 0, line(16), false)
	if st.Get(stats.DRAMWrites) != 1 {
		t.Fatalf("DRAM writes = %d, want 1", st.Get(stats.DRAMWrites))
	}
}

func TestLockBitPinsLine(t *testing.T) {
	_, h := tiny(1, nil)
	var evicted []EvictInfo
	h.SetEvictHook(func(e EvictInfo) { evicted = append(evicted, e) })
	mustAccess(t, h, 0, line(0), true)
	h.Table().Get(line(0)).Lock()
	mustAccess(t, h, 0, line(8), false)
	mustAccess(t, h, 0, line(16), false) // must evict line 8, not locked line 0
	for _, e := range evicted {
		if e.Line == line(0) {
			t.Fatal("locked line was evicted")
		}
	}
	if !h.Present(line(0)) {
		t.Fatal("locked line left the hierarchy")
	}
}

func TestFullyPinnedSetStalls(t *testing.T) {
	_, h := tiny(1, nil)
	mustAccess(t, h, 0, line(0), true)
	mustAccess(t, h, 0, line(8), true)
	h.Table().Get(line(0)).Lock()
	h.Table().Get(line(8)).Lock()
	if _, _, ok := h.Access(0, line(16), false); ok {
		t.Fatal("access should stall when the whole L3 set is pinned")
	}
	if h.CanAccess(0, line(16)) {
		t.Fatal("CanAccess should be false")
	}
	h.Table().Get(line(0)).Unlock()
	if _, _, ok := h.Access(0, line(16), false); !ok {
		t.Fatal("access should proceed after unlock")
	}
}

func TestAccessBlockingWaitsForUnlock(t *testing.T) {
	st := stats.New()
	k := sim.NewKernel()
	f := memdev.NewFabric(k, st, memdev.DefaultConfig())
	cfg := Config{
		L1: LevelConfig{Sets: 1, Ways: 1, Latency: 4},
		L2: LevelConfig{Sets: 1, Ways: 1, Latency: 14},
		L3: LevelConfig{Sets: 1, Ways: 1, Latency: 42},
	}
	h := NewHierarchy(st, f, 1, cfg, func(arch.LineAddr) bool { return true })
	var done uint64
	k.Spawn("t", func(th *sim.Thread) {
		lat0, _ := h.AccessBlocking(th, 0, line(0), true)
		th.Advance(lat0)
		h.Table().Get(line(0)).Lock()
		k.Schedule(500, func() { h.Table().Get(line(0)).Unlock() })
		lat1, _ := h.AccessBlocking(th, 0, line(1), false)
		th.Advance(lat1)
		done = th.Now()
	})
	k.MustRun()
	if done < 500 {
		t.Fatalf("blocked access finished at %d, want >= 500 (unlock time)", done)
	}
}

func TestWriteInvalidatesOtherCores(t *testing.T) {
	_, h := tiny(2, nil)
	mustAccess(t, h, 0, line(0), false)
	mustAccess(t, h, 1, line(0), false)
	m := h.Table().Get(line(0))
	if m.holders != 0b11 {
		t.Fatalf("holders = %b, want both cores", m.holders)
	}
	mustAccess(t, h, 0, line(0), true)
	if m.holders != 0b01 {
		t.Fatalf("holders after write = %b, want core 0 only", m.holders)
	}
	// Core 1 must now miss its L1 (L3 hit by inclusion).
	if lat := mustAccess(t, h, 1, line(0), false); lat != 42 {
		t.Fatalf("post-invalidate latency = %d, want 42", lat)
	}
}

func TestMarkClean(t *testing.T) {
	_, h := tiny(1, nil)
	var dirtyEvicts int
	h.SetEvictHook(func(e EvictInfo) {
		if e.Dirty {
			dirtyEvicts++
		}
	})
	mustAccess(t, h, 0, line(0), true)
	h.MarkClean(line(0))
	mustAccess(t, h, 0, line(8), false)
	mustAccess(t, h, 0, line(16), false) // evicts clean line 0
	if dirtyEvicts != 0 {
		t.Fatalf("clean line evicted dirty %d times", dirtyEvicts)
	}
}

func TestDirtinessMergesOnL1Eviction(t *testing.T) {
	_, h := tiny(1, nil)
	var evicted []EvictInfo
	h.SetEvictHook(func(e EvictInfo) { evicted = append(evicted, e) })
	// Dirty line 0 in L1, evict it from L1 only (lines 2,4 share L1 set 0
	// but not the L2/L3 sets), then force it out of the LLC: the dirtiness
	// must have survived the trip down.
	mustAccess(t, h, 0, line(0), true)
	mustAccess(t, h, 0, line(2), false)
	mustAccess(t, h, 0, line(4), false)
	mustAccess(t, h, 0, line(8), false)
	mustAccess(t, h, 0, line(16), false) // L3 set 0: 0,8,16 -> evict 0
	found := false
	for _, e := range evicted {
		if e.Line == line(0) {
			found = true
			if !e.Dirty {
				t.Fatal("dirtiness lost on the way down the hierarchy")
			}
		}
	}
	if !found {
		t.Fatal("line 0 never evicted from LLC")
	}
}

func TestLRUVictimSelection(t *testing.T) {
	// Note: L1 hits do not refresh L3 recency (inclusive hierarchy), so the
	// L3 touch comes from a second core whose access reaches the L3.
	_, h := tiny(2, nil)
	var evicted []EvictInfo
	h.SetEvictHook(func(e EvictInfo) { evicted = append(evicted, e) })
	mustAccess(t, h, 0, line(0), false)
	mustAccess(t, h, 0, line(8), false)
	mustAccess(t, h, 1, line(0), false) // L3 hit: 0 is now MRU in L3 set 0
	mustAccess(t, h, 0, line(16), false)
	if len(evicted) != 1 || evicted[0].Line != line(8) {
		t.Fatalf("evicted %+v, want LRU line 8", evicted)
	}
}

func TestLockedCount(t *testing.T) {
	_, h := tiny(1, nil)
	h.Table().Get(line(0)).Lock()
	h.Table().Get(line(1)).Lock()
	h.Table().Get(line(2))
	if got := h.Table().LocksTotal(); got != 2 {
		t.Fatalf("LocksTotal = %d, want 2", got)
	}
}

func TestFillHookFiresOnlyOnMemoryFills(t *testing.T) {
	_, h := tiny(1, nil)
	var fills []arch.LineAddr
	h.SetFillHook(func(l arch.LineAddr, m *Meta) { fills = append(fills, l) })
	mustAccess(t, h, 0, line(0), false) // memory fill
	mustAccess(t, h, 0, line(0), false) // L1 hit
	mustAccess(t, h, 0, line(2), false) // second memory fill
	if len(fills) != 2 || fills[0] != line(0) || fills[1] != line(2) {
		t.Fatalf("fill hook fired for %v, want [0, 2]", fills)
	}
}

func TestFillHookSkipsVolatileLines(t *testing.T) {
	_, h := tiny(1, func(arch.LineAddr) bool { return false })
	fired := 0
	h.SetFillHook(func(arch.LineAddr, *Meta) { fired++ })
	mustAccess(t, h, 0, line(0), false)
	if fired != 0 {
		t.Fatal("fill hook must only fire for persistent lines")
	}
}
