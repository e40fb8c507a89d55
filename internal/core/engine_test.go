package core

import (
	"testing"

	"asap/internal/arch"
	"asap/internal/machine"
	"asap/internal/memdev"
	"asap/internal/sim"
	"asap/internal/stats"
)

// testRig builds a small machine + engine for protocol tests.
func testRig(opt Options, mutate func(*machine.Config)) (*machine.Machine, *Engine) {
	cfg := machine.DefaultConfig()
	cfg.Cores = 4
	if mutate != nil {
		mutate(&cfg)
	}
	m := machine.New(cfg)
	return m, NewEngine(m, opt)
}

// run spawns fns as initialized threads, runs to completion with a final
// drain barrier per thread.
func run(m *machine.Machine, e *Engine, fns ...func(t *sim.Thread)) {
	for _, fn := range fns {
		fn := fn
		m.K.Spawn("w", func(t *sim.Thread) {
			e.InitThread(t)
			fn(t)
			e.DrainBarrier(t)
		})
	}
	m.K.MustRun()
}

func storeU64(e *Engine, t *sim.Thread, addr, v uint64) {
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
	e.Store(t, addr, b[:])
}

func loadU64(e *Engine, t *sim.Thread, addr uint64) uint64 {
	var b [8]byte
	e.Load(t, addr, b[:])
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}

func TestSingleRegionLifecycle(t *testing.T) {
	m, e := testRig(DefaultOptions(), nil)
	addr := m.Heap.Alloc(64, true)
	run(m, e, func(th *sim.Thread) {
		e.Begin(th)
		storeU64(e, th, addr, 42)
		e.End(th)
	})
	st := m.St
	if st.Get(stats.RegionsBegun) != 1 || st.Get(stats.RegionsCommitted) != 1 {
		t.Fatalf("regions begun/committed = %d/%d, want 1/1",
			st.Get(stats.RegionsBegun), st.Get(stats.RegionsCommitted))
	}
	if st.Get(stats.LPOsIssued) != 1 {
		t.Fatalf("LPOs = %d, want 1 (one line written once)", st.Get(stats.LPOsIssued))
	}
	if e.ActiveRegions() != 0 {
		t.Fatal("regions left uncommitted after drain")
	}
	if m.Heap.ReadU64(addr) != 42 {
		t.Fatal("store did not reach the heap")
	}
}

func TestAsyncCommitDoesNotStallEnd(t *testing.T) {
	// With a very slow PM, End must still return promptly: ASAP's whole
	// point. The region commits long after the thread moved on.
	slowOpt := DefaultOptions()
	m, e := testRig(slowOpt, func(c *machine.Config) {
		c.Mem.PMWriteCycles = 50_000
	})
	addr := m.Heap.Alloc(64, true)
	var endAt, doneAt uint64
	run(m, e, func(th *sim.Thread) {
		e.Begin(th)
		storeU64(e, th, addr, 1)
		e.End(th)
		endAt = th.Now()
		e.DrainBarrier(th)
		doneAt = th.Now()
	})
	if endAt > 2_000 {
		t.Fatalf("End stalled until %d cycles; asynchronous commit broken", endAt)
	}
	if doneAt < 50_000 {
		t.Fatalf("drain finished at %d, expected to wait for slow PM", doneAt)
	}
}

func TestControlDependenceOrdersCommits(t *testing.T) {
	m, e := testRig(DefaultOptions(), func(c *machine.Config) {
		c.Mem.PMWriteCycles = 3000 // keep persists slow enough to overlap
	})
	a := m.Heap.Alloc(64, true)
	b := m.Heap.Alloc(64, true)
	run(m, e, func(th *sim.Thread) {
		e.Begin(th)
		storeU64(e, th, a, 1)
		e.End(th)
		e.Begin(th)
		storeU64(e, th, b, 2)
		e.End(th)
	})
	r1 := arch.MakeRID(0, 1)
	r2 := arch.MakeRID(0, 2)
	c1, ok1 := e.CommittedAt[r1]
	c2, ok2 := e.CommittedAt[r2]
	if !ok1 || !ok2 {
		t.Fatal("regions did not commit")
	}
	if c2 < c1 {
		t.Fatalf("control dependence violated: R2 committed at %d before R1 at %d", c2, c1)
	}
	found := false
	for _, edge := range e.Edges {
		if edge[0] == r1 && edge[1] == r2 {
			found = true
		}
	}
	if !found {
		t.Fatal("control dependence edge R1->R2 not captured")
	}
}

func TestDataDependenceAcrossThreads(t *testing.T) {
	// A 1-entry WPQ with slow PM delays acceptance, keeping the producer
	// region uncommitted when the consumer arrives (the Figure 2 window).
	m, e := testRig(DefaultOptions(), func(c *machine.Config) {
		c.Mem.Controllers, c.Mem.ChannelsPerMC = 1, 1
		c.Mem.WPQEntries = 1
		c.Mem.PMWriteCycles = 3000
	})
	x := m.Heap.Alloc(64, true)
	var mu sim.Mutex
	var order []int

	producer := func(th *sim.Thread) {
		mu.Lock(th)
		e.Begin(th)
		storeU64(e, th, x, 7)
		e.End(th)
		order = append(order, th.ID())
		mu.Unlock(th)
	}
	consumer := func(th *sim.Thread) {
		th.Advance(500) // let the producer go first
		mu.Lock(th)
		e.Begin(th)
		v := loadU64(e, th, x)
		storeU64(e, th, x, v+1)
		e.End(th)
		order = append(order, th.ID())
		mu.Unlock(th)
	}
	run(m, e, producer, consumer)

	if m.Heap.ReadU64(x) != 8 {
		t.Fatalf("x = %d, want 8", m.Heap.ReadU64(x))
	}
	prod := arch.MakeRID(0, 1)
	cons := arch.MakeRID(1, 1)
	found := false
	for _, edge := range e.Edges {
		if edge[0] == prod && edge[1] == cons {
			found = true
		}
	}
	if !found {
		t.Fatalf("cross-thread data dependence not captured; edges = %v, order = %v", e.Edges, order)
	}
	if e.CommittedAt[cons] < e.CommittedAt[prod] {
		t.Fatal("consumer committed before producer")
	}
}

func TestCommitOrderRespectsAllEdges(t *testing.T) {
	m, e := testRig(DefaultOptions(), func(c *machine.Config) {
		c.Mem.Controllers, c.Mem.ChannelsPerMC = 1, 1
		c.Mem.WPQEntries = 2
		c.Mem.PMWriteCycles = 2000
	})
	shared := m.Heap.Alloc(64, true)
	var mu sim.Mutex
	worker := func(th *sim.Thread) {
		for i := 0; i < 10; i++ {
			mu.Lock(th)
			e.Begin(th)
			v := loadU64(e, th, shared)
			storeU64(e, th, shared, v+1)
			e.End(th)
			mu.Unlock(th)
			th.Advance(50)
		}
	}
	run(m, e, worker, worker, worker)
	if got := m.Heap.ReadU64(shared); got != 30 {
		t.Fatalf("counter = %d, want 30", got)
	}
	for _, edge := range e.Edges {
		from, to := edge[0], edge[1]
		cf, okF := e.CommittedAt[from]
		ct, okT := e.CommittedAt[to]
		if !okF || !okT {
			t.Fatalf("edge %v-%v missing commit stamps", from, to)
		}
		if ct < cf {
			t.Fatalf("dependence violated: %v committed at %d before its dependence %v at %d",
				to, ct, from, cf)
		}
	}
}

func TestFenceWaitsForCommit(t *testing.T) {
	// Persist completion is WPQ acceptance (§4.1): the WPQ sits in the
	// persistence domain. A fence therefore waits for commit (all accepts
	// plus dependence resolution), not for the PM device drain. Throttle
	// the WPQ to one entry with slow PM so acceptance itself is delayed,
	// and check the fence actually waited.
	m, e := testRig(DefaultOptions(), func(c *machine.Config) {
		c.Mem.WPQEntries = 1
		c.Mem.PMWriteCycles = 5_000
	})
	base := m.Heap.Alloc(64*4, true)
	var endAt, fenceDone uint64
	run(m, e, func(th *sim.Thread) {
		e.Begin(th)
		for i := 0; i < 4; i++ {
			storeU64(e, th, base+uint64(64*i), uint64(i))
		}
		e.End(th)
		endAt = th.Now()
		e.Fence(th)
		fenceDone = th.Now()
	})
	if fenceDone < 5_000 {
		t.Fatalf("fence returned at %d; with a 1-entry WPQ accepts need drains", fenceDone)
	}
	if endAt >= fenceDone {
		t.Fatalf("End (at %d) should not have waited like Fence (at %d)", endAt, fenceDone)
	}
	if m.St.Get(stats.Fences) != 1 {
		t.Fatal("fence not counted")
	}
}

func TestNestedRegionsFlatten(t *testing.T) {
	m, e := testRig(DefaultOptions(), nil)
	a := m.Heap.Alloc(64, true)
	b := m.Heap.Alloc(64, true)
	run(m, e, func(th *sim.Thread) {
		e.Begin(th)
		storeU64(e, th, a, 1)
		e.Begin(th) // nested: flattened
		storeU64(e, th, b, 2)
		e.End(th)
		storeU64(e, th, a, 3)
		e.End(th)
	})
	if m.St.Get(stats.RegionsBegun) != 1 {
		t.Fatalf("regions = %d, want 1 (nesting flattened)", m.St.Get(stats.RegionsBegun))
	}
	if m.St.Get(stats.RegionsCommitted) != 1 {
		t.Fatal("flattened region did not commit")
	}
}

func TestOneLPOPerLinePerRegion(t *testing.T) {
	m, e := testRig(DefaultOptions(), nil)
	addr := m.Heap.Alloc(64, true)
	run(m, e, func(th *sim.Thread) {
		e.Begin(th)
		for i := 0; i < 8; i++ {
			storeU64(e, th, addr+uint64(i*8)%64, uint64(i))
		}
		e.End(th)
	})
	if got := m.St.Get(stats.LPOsIssued); got != 1 {
		t.Fatalf("LPOs = %d, want 1 (same line, same region)", got)
	}
}

func TestNewRegionSameLineLogsAgain(t *testing.T) {
	m, e := testRig(DefaultOptions(), nil)
	addr := m.Heap.Alloc(64, true)
	run(m, e, func(th *sim.Thread) {
		for i := 0; i < 3; i++ {
			e.Begin(th)
			storeU64(e, th, addr, uint64(i))
			e.End(th)
		}
	})
	if got := m.St.Get(stats.LPOsIssued); got != 3 {
		t.Fatalf("LPOs = %d, want 3 (one per region)", got)
	}
}

func TestDPOCoalescingReducesDPOs(t *testing.T) {
	runOnce := func(coalesce bool) (dpos int64) {
		opt := DefaultOptions()
		opt.Coalescing = coalesce
		m, e := testRig(opt, nil)
		base := m.Heap.Alloc(64*16, true)
		run(m, e, func(th *sim.Thread) {
			e.Begin(th)
			// Hammer one line while occasionally touching others: the
			// coalescing window should absorb the repeats.
			for i := 0; i < 30; i++ {
				storeU64(e, th, base, uint64(i))
				storeU64(e, th, base+uint64(64*(1+i%3)), uint64(i))
			}
			e.End(th)
		})
		return m.St.Get(stats.DPOsIssued)
	}
	with := runOnce(true)
	without := runOnce(false)
	if with >= without {
		t.Fatalf("coalescing did not reduce DPOs: with=%d without=%d", with, without)
	}
}

func TestLPODroppingReducesTraffic(t *testing.T) {
	runOnce := func(drop bool) int64 {
		opt := DefaultOptions()
		opt.LPODropping = drop
		opt.DPODropping = false
		m, e := testRig(opt, func(c *machine.Config) {
			c.Mem.PMWriteCycles = 5000 // entries linger in the WPQ
		})
		base := m.Heap.Alloc(64*64, true)
		run(m, e, func(th *sim.Thread) {
			for i := 0; i < 20; i++ {
				e.Begin(th)
				storeU64(e, th, base+uint64(64*i), uint64(i))
				e.End(th)
			}
		})
		return m.St.Get(stats.PMWrites)
	}
	with := runOnce(true)
	without := runOnce(false)
	if with >= without {
		t.Fatalf("LPO dropping did not reduce PM writes: with=%d without=%d", with, without)
	}
}

func TestDPODroppingFires(t *testing.T) {
	opt := DefaultOptions()
	m, e := testRig(opt, func(c *machine.Config) {
		c.Mem.PMWriteCycles = 5000
	})
	addr := m.Heap.Alloc(64, true)
	run(m, e, func(th *sim.Thread) {
		// Back-to-back regions writing the same line: the second region's
		// LPO should catch the first region's DPO still queued.
		for i := 0; i < 10; i++ {
			e.Begin(th)
			storeU64(e, th, addr, uint64(i))
			e.End(th)
		}
	})
	if m.St.Get(stats.DPOsDropped) == 0 {
		t.Fatal("expected DPO dropping on back-to-back same-line regions")
	}
}

func TestLogRecordFillFlushesHeader(t *testing.T) {
	m, e := testRig(DefaultOptions(), nil)
	base := m.Heap.Alloc(64*16, true)
	run(m, e, func(th *sim.Thread) {
		e.Begin(th)
		for i := 0; i < 9; i++ { // > 7 distinct lines: at least one record fills
			storeU64(e, th, base+uint64(64*i), uint64(i))
		}
		e.End(th)
	})
	if got := m.St.Get(stats.LPOsIssued); got != 9 {
		t.Fatalf("LPOs = %d, want 9", got)
	}
	// The filled record's header must have been written (or dropped, but
	// with fast PM here it drains): look for its bytes in the PM image.
	if m.St.Get(stats.PMWrites) == 0 {
		t.Fatal("nothing drained to PM")
	}
}

func TestCLStallWhenSlotsExhausted(t *testing.T) {
	opt := DefaultOptions()
	opt.CLPtrSlots = 2
	m, e := testRig(opt, func(c *machine.Config) {
		c.Mem.PMWriteCycles = 2000
	})
	base := m.Heap.Alloc(64*16, true)
	run(m, e, func(th *sim.Thread) {
		e.Begin(th)
		for i := 0; i < 10; i++ {
			storeU64(e, th, base+uint64(64*i), uint64(i))
		}
		e.End(th)
	})
	if m.St.Get(stats.CLStalls) == 0 {
		t.Fatal("expected CLPtr stalls with 2 slots and 10 distinct lines")
	}
	if m.St.Get(stats.RegionsCommitted) != 1 {
		t.Fatal("region did not commit despite stalls")
	}
}

func TestBeginStallsWhenCLListFull(t *testing.T) {
	opt := DefaultOptions()
	opt.CLListEntries = 1
	m, e := testRig(opt, func(c *machine.Config) {
		c.Mem.PMWriteCycles = 4000
	})
	base := m.Heap.Alloc(64*8, true)
	run(m, e, func(th *sim.Thread) {
		for i := 0; i < 4; i++ {
			e.Begin(th)
			storeU64(e, th, base+uint64(64*i), uint64(i))
			e.End(th)
		}
	})
	if m.St.Get(stats.RegionsCommitted) != 4 {
		t.Fatalf("committed = %d, want 4", m.St.Get(stats.RegionsCommitted))
	}
}

func TestDepSlotStall(t *testing.T) {
	opt := DefaultOptions()
	opt.DepSlots = 1
	m, e := testRig(opt, func(c *machine.Config) {
		c.Mem.PMWriteCycles = 3000
	})
	lines := make([]uint64, 4)
	for i := range lines {
		lines[i] = m.Heap.Alloc(64, true)
	}
	var mu sim.Mutex
	writerA := func(th *sim.Thread) {
		mu.Lock(th)
		e.Begin(th)
		for _, l := range lines {
			storeU64(e, th, l, 1)
		}
		e.End(th)
		mu.Unlock(th)
	}
	// Thread B touches lines owned by A's several regions... with 1 dep
	// slot the single dependence suffices; make A produce two distinct
	// uncommitted regions first.
	writerA2 := func(th *sim.Thread) {
		mu.Lock(th)
		e.Begin(th)
		storeU64(e, th, lines[0], 2)
		e.End(th)
		e.Begin(th)
		storeU64(e, th, lines[1], 2)
		e.End(th)
		mu.Unlock(th)
	}
	reader := func(th *sim.Thread) {
		th.Advance(2000)
		mu.Lock(th)
		e.Begin(th)
		loadU64(e, th, lines[0])
		loadU64(e, th, lines[1])
		e.End(th)
		mu.Unlock(th)
	}
	_ = writerA
	run(m, e, writerA2, reader)
	if m.St.Get(stats.RegionsCommitted) != 3 {
		t.Fatalf("committed = %d, want 3", m.St.Get(stats.RegionsCommitted))
	}
}

func TestReadOnlyRegionCommitsImmediately(t *testing.T) {
	m, e := testRig(DefaultOptions(), nil)
	addr := m.Heap.Alloc(64, true)
	run(m, e, func(th *sim.Thread) {
		e.Begin(th)
		loadU64(e, th, addr)
		e.End(th)
	})
	if m.St.Get(stats.RegionsCommitted) != 1 {
		t.Fatal("read-only region did not commit")
	}
	if m.St.Get(stats.LPOsIssued) != 0 {
		t.Fatal("read-only region issued LPOs")
	}
}

func TestAccessOutsideRegionNotLogged(t *testing.T) {
	m, e := testRig(DefaultOptions(), nil)
	addr := m.Heap.Alloc(64, true)
	run(m, e, func(th *sim.Thread) {
		storeU64(e, th, addr, 5)
	})
	if m.St.Get(stats.LPOsIssued) != 0 {
		t.Fatal("non-region store issued an LPO")
	}
	if m.Heap.ReadU64(addr) != 5 {
		t.Fatal("non-region store lost")
	}
}

func TestVolatileStoresNotLogged(t *testing.T) {
	m, e := testRig(DefaultOptions(), nil)
	addr := m.Heap.Alloc(64, false)
	run(m, e, func(th *sim.Thread) {
		e.Begin(th)
		storeU64(e, th, addr, 5)
		e.End(th)
	})
	if m.St.Get(stats.LPOsIssued) != 0 {
		t.Fatal("volatile store issued an LPO")
	}
}

func TestCommitBroadcastCascades(t *testing.T) {
	// A chain R1 <- R2 <- R3 (control deps) where R1 finishes last must
	// commit all three in one cascade, in order.
	m, e := testRig(DefaultOptions(), func(c *machine.Config) {
		c.Mem.PMWriteCycles = 2000
	})
	base := m.Heap.Alloc(64*4, true)
	run(m, e, func(th *sim.Thread) {
		for i := 0; i < 3; i++ {
			e.Begin(th)
			storeU64(e, th, base+uint64(64*i), uint64(i))
			e.End(th)
		}
	})
	var prev uint64
	for i := 1; i <= 3; i++ {
		at, ok := e.CommittedAt[arch.MakeRID(0, uint64(i))]
		if !ok {
			t.Fatalf("R%d never committed", i)
		}
		if at < prev {
			t.Fatalf("R%d committed at %d, before predecessor at %d", i, at, prev)
		}
		prev = at
	}
}

func TestLogOverflowGrows(t *testing.T) {
	opt := DefaultOptions()
	opt.LogBufferBytes = 1024 // two records
	m, e := testRig(opt, func(c *machine.Config) {
		c.Mem.PMWriteCycles = 8000 // commits lag, log can't free fast
	})
	base := m.Heap.Alloc(64*128, true)
	run(m, e, func(th *sim.Thread) {
		e.Begin(th)
		for i := 0; i < 40; i++ {
			storeU64(e, th, base+uint64(64*i), uint64(i))
		}
		e.End(th)
	})
	if m.St.Get(stats.LogOverflows) == 0 {
		t.Fatal("expected a log overflow with a 2-record buffer and 40 lines")
	}
	if m.St.Get(stats.RegionsCommitted) != 1 {
		t.Fatal("region lost after log growth")
	}
}

func TestOwnerRIDSpillAndReload(t *testing.T) {
	// Force LLC evictions with a tiny hierarchy while a region is still
	// uncommitted, then touch the line again: the OwnerRID must survive
	// the round trip and produce a dependence.
	opt := DefaultOptions()
	m := machine.New(machine.Config{
		Cores: 2,
		Mem: func() memdev.Config {
			c := memdev.DefaultConfig()
			c.Controllers, c.ChannelsPerMC = 1, 1
			c.WPQEntries = 1         // acceptance throttled behind drains
			c.PMWriteCycles = 30_000 // regions stay uncommitted a long time
			return c
		}(),
		Caches: tinyCaches(),
	})
	e := NewEngine(m, opt)
	lines := make([]uint64, 40)
	for i := range lines {
		lines[i] = m.Heap.Alloc(64, true)
	}
	var mu sim.Mutex
	writer := func(th *sim.Thread) {
		mu.Lock(th)
		e.Begin(th)
		storeU64(e, th, lines[0], 1)
		e.End(th)
		mu.Unlock(th)
		// Thrash the cache so lines[0] leaves the LLC.
		for i := 1; i < len(lines); i++ {
			storeU64(e, th, lines[i], uint64(i))
		}
	}
	reader := func(th *sim.Thread) {
		th.Advance(20_000)
		mu.Lock(th)
		e.Begin(th)
		loadU64(e, th, lines[0])
		e.End(th)
		mu.Unlock(th)
	}
	for _, fn := range []func(*sim.Thread){writer, reader} {
		fn := fn
		m.K.Spawn("w", func(t *sim.Thread) {
			e.InitThread(t)
			fn(t)
			e.DrainBarrier(t)
		})
	}
	m.K.MustRun()
	if m.St.Get(stats.OwnerIDSpills) == 0 {
		t.Fatal("no OwnerRID spills despite cache thrash with uncommitted region")
	}
	if m.St.Get(stats.OwnerIDReloads) == 0 {
		t.Fatal("OwnerRID never reloaded")
	}
	found := false
	for _, edge := range e.Edges {
		if edge[0] == arch.MakeRID(0, 1) && edge[1] == arch.MakeRID(1, 1) {
			found = true
		}
	}
	if !found {
		t.Fatalf("dependence through evicted line not captured; edges=%v", e.Edges)
	}
}

func TestPersistedDataMatchesHeapAfterDrain(t *testing.T) {
	m, e := testRig(DefaultOptions(), nil)
	base := m.Heap.Alloc(64*8, true)
	run(m, e, func(th *sim.Thread) {
		for i := 0; i < 8; i++ {
			e.Begin(th)
			storeU64(e, th, base+uint64(64*i), uint64(1000+i))
			e.End(th)
		}
	})
	img := m.Fabric.PM()
	for i := 0; i < 8; i++ {
		line := arch.LineOf(base + uint64(64*i))
		if !img.Has(line) {
			t.Fatalf("line %d never persisted", i)
		}
		buf := img.Read(line)
		var v uint64
		for j := 0; j < 8; j++ {
			v |= uint64(buf[j]) << (8 * j)
		}
		if v != uint64(1000+i) {
			t.Fatalf("persisted value[%d] = %d, want %d", i, v, 1000+i)
		}
	}
}

func TestLHWPQStallLimitsOpenRecords(t *testing.T) {
	// A 1-entry LH-WPQ on a single channel admits one region's open log
	// record at a time: a second uncommitted region's first write must
	// stall until the first commits.
	opt := DefaultOptions()
	m, e := testRig(opt, func(c *machine.Config) {
		c.Mem.Controllers, c.Mem.ChannelsPerMC = 1, 1
		c.Mem.LHWPQEntries = 1
		c.Mem.WPQEntries = 1
		c.Mem.PMWriteCycles = 2000
	})
	a := m.Heap.Alloc(64, true)
	b := m.Heap.Alloc(64, true)
	run(m, e, func(th *sim.Thread) {
		e.Begin(th)
		storeU64(e, th, a, 1)
		e.End(th)
		e.Begin(th)
		storeU64(e, th, b, 2) // needs the LH-WPQ slot the first region holds
		e.End(th)
	})
	if m.St.Get(stats.LHWPQStalls) == 0 {
		t.Fatal("expected an LH-WPQ stall with capacity 1")
	}
	if m.St.Get(stats.RegionsCommitted) != 2 {
		t.Fatal("both regions must still commit")
	}
}

func TestBeginStallsWhenDepListFull(t *testing.T) {
	opt := DefaultOptions()
	opt.DepListEntries = 1
	m, e := testRig(opt, func(c *machine.Config) {
		c.Mem.Controllers, c.Mem.ChannelsPerMC = 1, 1
		c.Mem.WPQEntries = 1
		c.Mem.PMWriteCycles = 3000
	})
	base := m.Heap.Alloc(64*4, true)
	var secondBegin uint64
	run(m, e, func(th *sim.Thread) {
		e.Begin(th)
		storeU64(e, th, base, 1)
		e.End(th)
		e.Begin(th) // dep list (capacity 1, single channel) is full
		secondBegin = th.Now()
		storeU64(e, th, base+64, 2)
		e.End(th)
	})
	if secondBegin < 2000 {
		t.Fatalf("second Begin at %d: should have stalled for the first commit", secondBegin)
	}
	if m.St.Get(stats.RegionsCommitted) != 2 {
		t.Fatal("both regions must commit")
	}
}

func TestCommitLagMeasuresAsynchrony(t *testing.T) {
	// With a throttled memory system the End-to-commit window is long —
	// exactly the work ASAP overlaps. Synchronous schemes have no lag by
	// construction (they commit inside End).
	m, e := testRig(DefaultOptions(), func(c *machine.Config) {
		c.Mem.Controllers, c.Mem.ChannelsPerMC = 1, 1
		c.Mem.WPQEntries = 1
		c.Mem.PMWriteCycles = 2000
	})
	base := m.Heap.Alloc(64*4, true)
	run(m, e, func(th *sim.Thread) {
		for i := 0; i < 4; i++ {
			e.Begin(th)
			storeU64(e, th, base+uint64(64*i), uint64(i))
			e.End(th)
		}
	})
	h := m.St.Hist(stats.CommitLag)
	if h.Count() != 4 {
		t.Fatalf("commit lag observations = %d, want 4", h.Count())
	}
	if h.Quantile(0.99) < 1000 {
		t.Fatalf("p99 commit lag = %d; expected a long asynchrony window", h.Quantile(0.99))
	}
}
