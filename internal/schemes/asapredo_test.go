package schemes

import (
	"testing"

	"asap/internal/machine"
	"asap/internal/sim"
	"asap/internal/stats"
	"asap/internal/wal"
)

func buildRedoA(mutate func(*machine.Config)) (*machine.Machine, *ASAPRedo) {
	cfg := machine.DefaultConfig()
	cfg.Cores = 4
	if mutate != nil {
		mutate(&cfg)
	}
	m := machine.New(cfg)
	return m, NewASAPRedo(m)
}

func TestASAPRedoBasicCommit(t *testing.T) {
	m, s := buildRedoA(nil)
	cycles := miniWorkload(m, s, 30, 3)
	if cycles == 0 {
		t.Fatal("no cycles")
	}
	if got := m.St.Get(stats.RegionsCommitted); got != 30 {
		t.Fatalf("committed = %d, want 30", got)
	}
}

func TestASAPRedoEndIsAsynchronous(t *testing.T) {
	m, s := buildRedoA(func(c *machine.Config) {
		c.Mem.Controllers, c.Mem.ChannelsPerMC = 1, 1
		c.Mem.WPQEntries = 1
		c.Mem.PMWriteCycles = 3000
	})
	base := m.Heap.Alloc(64*4, true)
	var endAt uint64
	m.K.Spawn("w", func(th *sim.Thread) {
		s.InitThread(th)
		s.Begin(th)
		for j := 0; j < 3; j++ {
			var b [8]byte
			s.Store(th, base+uint64(64*j), b[:])
		}
		s.End(th)
		endAt = th.Now()
		s.DrainBarrier(th)
	})
	m.K.MustRun()
	if endAt > 3000 {
		t.Fatalf("End stalled until %d: asynchronous redo commit broken", endAt)
	}
}

func TestASAPRedoDependenceOrder(t *testing.T) {
	// Figure 2c: a consumer's commit (and thus its DPOs) must wait for the
	// producer. With a throttled WPQ the producer's log writes crawl; the
	// consumer must still commit after it.
	m, s := buildRedoA(func(c *machine.Config) {
		c.Mem.Controllers, c.Mem.ChannelsPerMC = 1, 1
		c.Mem.WPQEntries = 1
		c.Mem.PMWriteCycles = 3000
	})
	x := m.Heap.Alloc(64, true)
	var mu sim.Mutex
	var commits []int
	track := func(id int) func() bool {
		return func() bool {
			commits = append(commits, id)
			return true
		}
	}
	_ = track
	producer := func(th *sim.Thread) {
		mu.Lock(th)
		s.Begin(th)
		var b [8]byte
		b[0] = 7
		s.Store(th, x, b[:])
		s.End(th)
		mu.Unlock(th)
	}
	consumer := func(th *sim.Thread) {
		th.Advance(500)
		mu.Lock(th)
		s.Begin(th)
		var b [8]byte
		s.Load(th, x, b[:])
		b[0]++
		s.Store(th, x, b[:])
		s.End(th)
		mu.Unlock(th)
		// The consumer region must have captured the dependence.
		if len(s.state(th).last.deps) == 0 && !s.state(th).last.committed {
			t.Error("consumer captured no dependence while producer uncommitted")
		}
	}
	for _, fn := range []func(*sim.Thread){producer, consumer} {
		fn := fn
		m.K.Spawn("w", func(th *sim.Thread) {
			s.InitThread(th)
			fn(th)
			s.DrainBarrier(th)
		})
	}
	m.K.MustRun()
	if got := m.Heap.ReadU64(x); got != 8 {
		t.Fatalf("x = %d, want 8", got)
	}
	if m.St.Get(stats.RegionsCommitted) != 2 {
		t.Fatal("not everything committed")
	}
}

func TestASAPRedoAllBenchmarksConsistent(t *testing.T) {
	// The scheme integrates with every Table 3 benchmark via the shared
	// interface; spot-check a representative mix end to end.
	for _, name := range []string{"BN", "Q", "HM", "TPCC"} {
		m, s := buildRedoA(nil)
		env := envFor(m, s)
		res := runBench(env, name)
		if res != "" {
			t.Fatalf("%s: %s", name, res)
		}
	}
}

func TestASAPRedoFenceWaits(t *testing.T) {
	m, s := buildRedoA(func(c *machine.Config) {
		c.Mem.Controllers, c.Mem.ChannelsPerMC = 1, 1
		c.Mem.WPQEntries = 1
		c.Mem.PMWriteCycles = 4000
	})
	base := m.Heap.Alloc(64*4, true)
	var endAt, fenceAt uint64
	m.K.Spawn("w", func(th *sim.Thread) {
		s.InitThread(th)
		s.Begin(th)
		for j := 0; j < 3; j++ {
			var b [8]byte
			s.Store(th, base+uint64(64*j), b[:])
		}
		s.End(th)
		endAt = th.Now()
		s.Fence(th)
		fenceAt = th.Now()
		s.DrainBarrier(th)
	})
	m.K.MustRun()
	if fenceAt <= endAt {
		t.Fatalf("fence (%d) should wait beyond End (%d)", fenceAt, endAt)
	}
}

func TestASAPRedoFreeAfterGrowKeepsLiveRecords(t *testing.T) {
	// Region A's DPOs complete after the thread's log has grown under
	// region B. A's log end is an offset into the abandoned buffer, so
	// freeing up to it must leave B's record in the new buffer live.
	m, s := buildRedoA(func(c *machine.Config) {
		c.Mem.Controllers, c.Mem.ChannelsPerMC = 1, 1
		c.Mem.WPQEntries = 1
		c.Mem.PMWriteCycles = 3000
	})
	base := m.Heap.Alloc(64*2, true)
	var live uint64
	m.K.Spawn("w", func(th *sim.Thread) {
		s.InitThread(th)
		ts := s.state(th)
		ts.log = wal.NewThreadLog(m.Heap, wal.RecordBytes) // room for A's record only
		words := make([]byte, 64)                          // eight words: one log line
		s.Begin(th)
		s.Store(th, base, words)
		s.End(th)
		a := ts.last
		s.Begin(th)
		s.Store(th, base+64, words) // B's record overflows the log: Grow
		th.WaitUntil(func() bool { return a.committed && a.pendingDPOs == 0 })
		live = ts.log.Live()
		s.End(th)
		s.DrainBarrier(th)
	})
	if err := m.K.Run(); err != nil {
		t.Fatal(err)
	}
	if got := m.St.Get(stats.LogOverflows); got != 1 {
		t.Fatalf("log overflows = %d, want 1", got)
	}
	if live < wal.RecordBytes {
		t.Fatalf("B's record freed by A's stale log end: %d live bytes, want >= %d", live, wal.RecordBytes)
	}
}
