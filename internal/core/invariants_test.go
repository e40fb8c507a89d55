package core

import (
	"fmt"
	"testing"

	"asap/internal/arch"
	"asap/internal/machine"
	"asap/internal/sim"
	"asap/internal/stats"
)

// TestRuntimeInvariants drives a dependence-heavy multi-threaded run and
// samples the hardware state every few hundred cycles, checking the
// DESIGN.md §6 invariants that must hold at every instant:
//
//  4. a line with LockBit set is never evicted from the hierarchy,
//  5. the Dependence Lists contain exactly the uncommitted regions,
//  1. no region's Dep slot ever names a committed region (stale deps
//     would stall commits forever; cleared deps must stay cleared).
func TestRuntimeInvariants(t *testing.T) {
	cfg := machine.DefaultConfig()
	cfg.Cores = 4
	cfg.Mem.Controllers, cfg.Mem.ChannelsPerMC = 1, 2
	cfg.Mem.WPQEntries = 8
	cfg.Mem.PMWriteCycles = 800
	m := machine.New(cfg)
	e := NewEngine(m, DefaultOptions())

	shared := m.Heap.Alloc(64*4, true)
	var mu sim.Mutex
	var violations []string

	check := func() {
		// Invariant 4: locked lines are pinned in the cache.
		for _, r := range e.regions {
			if r.cl == nil {
				continue
			}
			for _, s := range r.cl.Slots {
				meta := m.Caches.Table().Peek(s.Line)
				if meta != nil && meta.Locked() && !m.Caches.Present(s.Line) {
					violations = append(violations, fmt.Sprintf("locked line evicted: %#x", uint64(s.Line)))
				}
			}
		}
		// Invariant 5: dep lists <-> uncommitted regions, exactly.
		listed := map[arch.RID]bool{}
		for _, dl := range e.dep {
			for _, entry := range dl.Entries() {
				listed[entry.RID] = true
				if _, ok := e.regions[entry.RID]; !ok {
					violations = append(violations, "dep entry for unknown region "+entry.RID.String())
				}
				// Invariant 1: named dependencies are live regions.
				for d := range entry.Deps {
					if e.depOf(d) == nil {
						violations = append(violations, "stale dep on committed "+d.String())
					}
				}
			}
		}
		for rid := range e.regions {
			if !listed[rid] {
				violations = append(violations, "uncommitted region missing from dep lists: "+rid.String())
			}
		}
	}

	// Sample the invariants periodically through the whole run.
	var arm func(at uint64)
	arm = func(at uint64) {
		m.K.Schedule(at, func() {
			check()
			if at < 400_000 && !m.K.Halted() {
				arm(at + 300)
			}
		})
	}
	arm(300)

	for w := 0; w < 4; w++ {
		m.K.Spawn("w", func(th *sim.Thread) {
			e.InitThread(th)
			for i := 0; i < 60; i++ {
				mu.Lock(th)
				e.Begin(th)
				for j := uint64(0); j < 4; j++ {
					v := loadU64(e, th, shared+64*j)
					storeU64(e, th, shared+64*j, v+1)
				}
				e.End(th)
				mu.Unlock(th)
				th.Advance(30)
			}
			e.DrainBarrier(th)
		})
	}
	m.K.MustRun()

	if len(violations) > 0 {
		t.Fatalf("%d invariant violations, first: %s", len(violations), violations[0])
	}
	if m.St.Get(stats.RegionsCommitted) != 240 {
		t.Fatalf("committed = %d, want 240", m.St.Get(stats.RegionsCommitted))
	}
	if m.St.Get(stats.DepEdges) == 0 {
		t.Fatal("run produced no dependencies; invariant test too weak")
	}
}

// TestLogNotFreedBeforeDepsCommit pins invariant 1 directly: with a
// consumer region stuck behind a slow producer, the consumer's log space
// must remain allocated until the producer commits.
func TestLogNotFreedBeforeDepsCommit(t *testing.T) {
	m, e := testRig(DefaultOptions(), func(c *machine.Config) {
		c.Mem.Controllers, c.Mem.ChannelsPerMC = 1, 1
		c.Mem.WPQEntries = 1
		c.Mem.PMWriteCycles = 20_000
	})
	x := m.Heap.Alloc(64, true)
	var mu sim.Mutex
	var consumerLogHead func() uint64
	var sampled []uint64

	producer := func(th *sim.Thread) {
		mu.Lock(th)
		e.Begin(th)
		storeU64(e, th, x, 1)
		e.End(th)
		mu.Unlock(th)
	}
	consumer := func(th *sim.Thread) {
		th.Advance(500)
		mu.Lock(th)
		e.Begin(th)
		storeU64(e, th, x, 2)
		e.End(th)
		mu.Unlock(th)
		ts := e.threads[th.ID()]
		consumerLogHead = ts.log.Head
		// Sample the consumer's log head while the producer is still
		// uncommitted: it must not advance (log not freed).
		for i := 0; i < 5; i++ {
			prod := e.regions[arch.MakeRID(0, 1)]
			if prod != nil && !prod.committed {
				sampled = append(sampled, consumerLogHead())
			}
			th.Advance(2_000)
		}
	}
	run(m, e, producer, consumer)

	for _, h := range sampled {
		if h != 0 {
			t.Fatalf("consumer log freed (head=%d) while its dependence was uncommitted", h)
		}
	}
	if len(sampled) == 0 {
		t.Skip("producer committed too fast to observe the window")
	}
	if consumerLogHead() == 0 {
		t.Fatal("consumer log never freed even after everything committed")
	}
}
