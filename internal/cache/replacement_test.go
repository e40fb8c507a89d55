package cache

// Replacement edge cases for the packed-tag level: fully-pinned sets,
// deterministic LRU victim ordering, dirty-line invalidation across
// private levels, and the power-of-two Sets rounding contract.

import (
	"testing"

	"asap/internal/arch"
	"asap/internal/memdev"
	"asap/internal/sim"
	"asap/internal/stats"
)

func TestVictimAllWaysPinned(t *testing.T) {
	l := newLevel(LevelConfig{Sets: 1, Ways: 2, Latency: 1})
	m0 := &Meta{line: line(0), Locks: 1}
	m1 := &Meta{line: line(1), Locks: 1}
	l.install(l.victim(line(0)), line(0), m0, false)
	l.install(l.victim(line(1)), line(1), m1, false)
	if v := l.victim(line(2)); v != -1 {
		t.Fatalf("victim = %d with every way pinned, want -1", v)
	}
	m1.Locks = 0
	v := l.victim(line(2))
	if v < 0 || l.lineOf(v) != line(1) {
		t.Fatalf("victim after unpin = %d (%v), want the unpinned way", v, l.lineOf(v))
	}
}

func TestVictimPrefersInvalidWay(t *testing.T) {
	l := newLevel(LevelConfig{Sets: 1, Ways: 4, Latency: 1})
	l.install(l.victim(line(0)), line(0), &Meta{line: line(0)}, false)
	// Ways 1..3 are still invalid: the victim must be the first of them,
	// not the valid LRU way.
	if v := l.victim(line(9)); v != 1 {
		t.Fatalf("victim = %d, want first invalid way 1", v)
	}
}

// TestLRUVictimDeterminism replays one access pattern on two fresh levels:
// victim selection must be a pure function of the access history (strict
// lastUse ordering, lowest slot index winning any residual comparison), or
// simulations would diverge between runs.
func TestLRUVictimDeterminism(t *testing.T) {
	run := func() []arch.LineAddr {
		l := newLevel(LevelConfig{Sets: 2, Ways: 2, Latency: 1})
		var evicted []arch.LineAddr
		for i := 0; i < 64; i++ {
			ln := line(i % 7)
			if si := l.lookup(ln); si >= 0 {
				l.touch(si)
				continue
			}
			v := l.victim(ln)
			if l.tags[v] != 0 {
				evicted = append(evicted, l.lineOf(v))
			}
			l.install(v, ln, &Meta{line: ln}, false)
		}
		return evicted
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("eviction sequences differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("eviction[%d] = %v vs %v: victim selection is not deterministic", i, a[i], b[i])
		}
	}
	if len(a) == 0 {
		t.Fatal("access pattern produced no evictions; test is vacuous")
	}
}

// TestInvalidateDirtyLineInMultiplePrivateLevels makes one line dirty in
// both of a core's private levels, then writes it from another core: the
// coherence invalidation must fold the dirtiness into the shared L3 so a
// later LLC eviction still writes the line back.
func TestInvalidateDirtyLineInMultiplePrivateLevels(t *testing.T) {
	_, h := tiny(2, nil)
	var evicted []EvictInfo
	h.SetEvictHook(func(e EvictInfo) { evicted = append(evicted, e) })

	// Core 0 dirties line 0 in L1, then pushes it down to L2 (lines 2 and 4
	// share its L1 set but not its L2/L3 sets) and dirties it in L1 again:
	// the line is now dirty in L2 (merged on L1 eviction) and in L1.
	mustAccess(t, h, 0, line(0), true)
	mustAccess(t, h, 0, line(2), false)
	mustAccess(t, h, 0, line(4), false)
	mustAccess(t, h, 0, line(0), true)

	// Core 1 writes the line: core 0's L1 and L2 copies invalidate, and the
	// dirtiness they carried must survive in the L3.
	mustAccess(t, h, 1, line(0), true)
	if m := h.Table().Get(line(0)); m.holders != 0b10 {
		t.Fatalf("holders = %b after remote write, want core 1 only", m.holders)
	}

	// Clean core 1's own write so the only dirtiness left is what the
	// invalidation merged; then evict the line from the LLC.
	if si := h.l1[1].lookup(line(0)); si >= 0 {
		h.l1[1].dirty[si] = false
	}
	mustAccess(t, h, 1, line(8), false)
	mustAccess(t, h, 1, line(16), false)
	found := false
	for _, e := range evicted {
		if e.Line == line(0) {
			found = true
			if !e.Dirty {
				t.Fatal("dirtiness from the invalidated private copies was lost")
			}
		}
	}
	if !found {
		t.Fatal("line 0 never left the LLC")
	}
}

func TestCeilPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 7: 8, 8: 8, 9: 16, 1023: 1024, 1024: 1024, 1025: 2048}
	for in, want := range cases {
		if got := ceilPow2(in); got != want {
			t.Fatalf("ceilPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

// TestNonPowerOfTwoSetsRounded checks the documented LevelConfig contract:
// a non-power-of-two Sets builds the next power of two, and the level
// then behaves like that larger cache (no out-of-range set indices, no
// aliasing between sets that the mask would not produce).
func TestNonPowerOfTwoSetsRounded(t *testing.T) {
	l := newLevel(LevelConfig{Sets: 3, Ways: 2, Latency: 1})
	if got := int(l.setMask) + 1; got != 4 {
		t.Fatalf("%d sets for Sets=3, want 4", got)
	}
	// Lines 0..3 land in four distinct sets under the mask; with Sets=3 and
	// the old modulo they would have collided. Install all of them plus a
	// second way each and verify nothing was evicted.
	for i := 0; i < 8; i++ {
		ln := line(i)
		if l.lookup(ln) >= 0 {
			t.Fatalf("line %d already present", i)
		}
		v := l.victim(ln)
		if l.tags[v] != 0 {
			t.Fatalf("installing line %d evicted %v: rounded level too small", i, l.lineOf(v))
		}
		l.install(v, ln, &Meta{line: ln}, false)
	}
	// A full hierarchy with non-power-of-two level sizes must still work.
	st := stats.New()
	f := memdev.NewFabric(sim.NewKernel(), st, memdev.DefaultConfig())
	h2 := NewHierarchy(st, f, 1, Config{
		L1: LevelConfig{Sets: 3, Ways: 2, Latency: 4},
		L2: LevelConfig{Sets: 5, Ways: 2, Latency: 14},
		L3: LevelConfig{Sets: 9, Ways: 2, Latency: 42},
	}, func(arch.LineAddr) bool { return true })
	for i := 0; i < 64; i++ {
		mustAccess(t, h2, 0, line(i%13), i%3 == 0)
	}
}
