package cache

import (
	"testing"

	"asap/internal/snapshot"
)

// levelDigest hashes appendLevel's encoding of l.
func levelDigest(l *level) string {
	e := snapshot.NewEnc()
	e.Section("level")
	appendLevel(e, l)
	return e.Sections()[0].SHA256
}

// TestResetLevelEqualsNew drives a hierarchy through installs, LRU
// evictions from every level, coherence invalidations and MarkClean, then
// resets each of its levels: each must digest exactly as a new level.
func TestResetLevelEqualsNew(t *testing.T) {
	_, h := tiny(2, nil)
	for i := 0; i < 64; i++ {
		mustAccess(t, h, i%2, line(i%23), i%3 == 0) // evicts in L1, L2 and L3
		if i%5 == 0 {
			h.MarkClean(line(i % 23))
		}
	}
	mustAccess(t, h, 0, line(1), true) // invalidates core 1's copy
	mustAccess(t, h, 1, line(1), true) // and core 0's
	if h.l3.clock == 0 {
		t.Fatal("the workload left the L3 untouched")
	}

	for _, l := range []*level{h.l1[0], h.l1[1], h.l2[0], h.l2[1], h.l3} {
		want := levelDigest(newLevel(l.cfg))
		if levelDigest(l) == want {
			t.Fatalf("level %+v digests as new before reset", l.cfg)
		}
		l.reset()
		if got := levelDigest(l); got != want {
			t.Fatalf("level %+v after reset digests %s, want a new level's %s", l.cfg, got, want)
		}
	}
}

// TestUnbuiltPrivateLevelDigestsAsNew checks that a core whose L1 and L2
// were never built digests exactly as if they had been built empty.
func TestUnbuiltPrivateLevelDigestsAsNew(t *testing.T) {
	for _, cfg := range []LevelConfig{DefaultConfig().L1, {Sets: 3, Ways: 2, Latency: 4}} {
		e := snapshot.NewEnc()
		e.Section("level")
		appendPrivate(e, nil, cfg)
		if got, want := e.Sections()[0].SHA256, levelDigest(newLevel(cfg)); got != want {
			t.Fatalf("%+v: unbuilt level digests %s, new level %s", cfg, got, want)
		}
	}
}

// TestReleaseRecyclesLevels checks that a released hierarchy's levels
// come back, reset, to the next hierarchy of the same configuration, and
// that a released hierarchy can no longer be used.
func TestReleaseRecyclesLevels(t *testing.T) {
	_, h := tiny(2, nil)
	mustAccess(t, h, 1, line(3), true)
	if h.l1[0] != nil || h.l2[0] != nil {
		t.Fatal("core 0 never accessed, but its private levels were built")
	}
	l1, l3 := h.l1[1], h.l3
	h.Release()
	h.Release() // a second release is a no-op

	_, h2 := tiny(2, nil)
	if h2.l3 != l3 {
		t.Fatal("the new hierarchy did not take the released L3 from the pool")
	}
	mustAccess(t, h2, 0, line(3), false)
	if h2.l1[0] != l1 {
		t.Fatal("the new hierarchy did not take the released L1 from the pool")
	}
	if l1.lookup(line(3)) < 0 || l1.clock != 1 {
		t.Fatalf("the recycled L1 did not start empty: clock %d", l1.clock)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("Access on a released hierarchy did not panic")
		}
	}()
	h.Access(0, line(0), false)
}
