package memdev

import (
	"bytes"
	"testing"

	"asap/internal/arch"
	"asap/internal/sim"
	"asap/internal/stats"
)

func payload(b byte) []byte {
	p := make([]byte, arch.LineSize)
	for i := range p {
		p[i] = b
	}
	return p
}

func testFabric(cfg Config) (*sim.Kernel, *stats.Set, *Fabric) {
	k := sim.NewKernel()
	st := stats.New()
	return k, st, NewFabric(k, st, cfg)
}

func TestSubmitPersistAcceptAndDrain(t *testing.T) {
	cfg := DefaultConfig()
	k, st, f := testFabric(cfg)
	var acceptedAt uint64
	k.Spawn("t", func(th *sim.Thread) {
		f.SubmitPersist(&Entry{Kind: KindDPO, Dst: 0, Subject: 0, Payload: payload(0xaa)}, func(at uint64) {
			acceptedAt = at
		})
		th.Advance(10000)
	})
	k.MustRun()
	if acceptedAt != cfg.TransferCycles {
		t.Fatalf("accepted at %d, want transfer latency %d", acceptedAt, cfg.TransferCycles)
	}
	if got := st.Get(stats.PMWrites); got != 1 {
		t.Fatalf("PM writes = %d, want 1", got)
	}
	if !bytes.Equal(f.PM().Read(0), payload(0xaa)) {
		t.Fatal("PM image missing drained payload")
	}
}

func TestChannelInterleaving(t *testing.T) {
	_, _, f := testFabric(DefaultConfig())
	n := len(f.Channels())
	if n != 4 {
		t.Fatalf("channels = %d, want 4 (2 MC x 2)", n)
	}
	seen := map[int]bool{}
	for i := 0; i < 16; i++ {
		line := arch.LineAddr(i * arch.LineSize)
		seen[f.ChannelFor(line).ID()] = true
	}
	if len(seen) != n {
		t.Fatalf("interleaving touched %d channels, want %d", len(seen), n)
	}
}

func TestHomeChannelByLocalRID(t *testing.T) {
	_, _, f := testFabric(DefaultConfig())
	r1 := arch.MakeRID(0, 1)
	r5 := arch.MakeRID(3, 5)
	if f.HomeChannel(r1).ID() != 1%4 {
		t.Fatalf("home of %v = %d", r1, f.HomeChannel(r1).ID())
	}
	if f.HomeChannel(r5).ID() != 5%4 {
		t.Fatalf("home of %v = %d", r5, f.HomeChannel(r5).ID())
	}
}

func TestWPQBackpressure(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Controllers, cfg.ChannelsPerMC = 1, 1
	cfg.WPQEntries = 2
	cfg.PMWriteCycles = 1000
	k, st, f := testFabric(cfg)
	accepts := 0
	k.Spawn("t", func(th *sim.Thread) {
		for i := 0; i < 5; i++ {
			f.SubmitPersist(&Entry{Kind: KindDPO, Dst: arch.LineAddr(i * 64), Payload: payload(byte(i))}, func(uint64) { accepts++ })
		}
		th.Advance(100000)
	})
	k.MustRun()
	if accepts != 5 {
		t.Fatalf("accepts = %d, want all 5 eventually", accepts)
	}
	if st.Get(stats.WPQStalls) == 0 {
		t.Fatal("expected WPQ stalls with capacity 2 and 5 writes")
	}
	if st.Get(stats.PMWrites) != 5 {
		t.Fatalf("PM writes = %d, want 5", st.Get(stats.PMWrites))
	}
}

func TestArrivalsAcceptedFIFO(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Controllers, cfg.ChannelsPerMC = 1, 1
	cfg.WPQEntries = 1
	cfg.PMWriteCycles = 100
	k, _, f := testFabric(cfg)
	var order []int
	k.Spawn("t", func(th *sim.Thread) {
		for i := 0; i < 4; i++ {
			i := i
			f.SubmitPersist(&Entry{Kind: KindDPO, Dst: arch.LineAddr(i * 64), Payload: payload(byte(i))}, func(uint64) {
				order = append(order, i)
			})
		}
		th.Advance(10000)
	})
	k.MustRun()
	for i, v := range order {
		if v != i {
			t.Fatalf("accept order = %v, want FIFO", order)
		}
	}
}

func TestLPODropping(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Controllers, cfg.ChannelsPerMC = 1, 1
	cfg.PMWriteCycles = 10000 // keep entries queued
	k, st, f := testFabric(cfg)
	r := arch.MakeRID(0, 1)
	other := arch.MakeRID(0, 2)
	k.Spawn("t", func(th *sim.Thread) {
		f.SubmitPersist(&Entry{Kind: KindLPO, RID: r, Dst: 0, Subject: 64, Payload: payload(1)}, nil)
		f.SubmitPersist(&Entry{Kind: KindLogHeader, RID: r, Dst: 128, Payload: payload(2)}, nil)
		f.SubmitPersist(&Entry{Kind: KindLPO, RID: other, Dst: 192, Subject: 64, Payload: payload(3)}, nil)
		f.SubmitPersist(&Entry{Kind: KindDPO, RID: r, Dst: 256, Subject: 256, Payload: payload(4)}, nil)
		th.Advance(cfg.TransferCycles + 5)
		// The region's first LPO is scheduled at the device but still
		// WPQ-resident (§5.1: droppable until written), so both it and
		// the header drop; the other region's LPO and the DPO stay.
		dropped := f.DropRegionOps(r)
		if dropped != 2 {
			t.Errorf("dropped = %d, want 2 (in-flight LPO + queued header)", dropped)
		}
		th.Advance(100000)
	})
	k.MustRun()
	if st.Get(stats.LPOsDropped) != 2 {
		t.Fatalf("LPOsDropped = %d, want 2", st.Get(stats.LPOsDropped))
	}
	// 4 submitted, 2 dropped -> 2 PM writes.
	if st.Get(stats.PMWrites) != 2 {
		t.Fatalf("PM writes = %d, want 2", st.Get(stats.PMWrites))
	}
}

func TestDPODropping(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Controllers, cfg.ChannelsPerMC = 1, 1
	cfg.PMWriteCycles = 10000
	k, st, f := testFabric(cfg)
	line := arch.LineAddr(64)
	k.Spawn("t", func(th *sim.Thread) {
		f.SubmitPersist(&Entry{Kind: KindDPO, Dst: 0, Subject: 0, Payload: payload(9)}, nil) // drains first
		f.SubmitPersist(&Entry{Kind: KindDPO, Dst: line, Subject: line, Payload: payload(1)}, nil)
		th.Advance(cfg.TransferCycles + 5)
		if !f.DropDPOFor(line) {
			t.Error("expected queued DPO to drop")
		}
		if f.DropDPOFor(line) {
			t.Error("second drop should find nothing")
		}
		th.Advance(100000)
	})
	k.MustRun()
	if st.Get(stats.DPOsDropped) != 1 {
		t.Fatalf("DPOsDropped = %d, want 1", st.Get(stats.DPOsDropped))
	}
}

func TestFlushToImageOnCrash(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Controllers, cfg.ChannelsPerMC = 1, 1
	cfg.PMWriteCycles = 100000 // nothing drains before crash
	k, st, f := testFabric(cfg)
	k.Spawn("t", func(th *sim.Thread) {
		f.SubmitPersist(&Entry{Kind: KindDPO, Dst: 0, Payload: payload(7)}, nil)
		f.SubmitPersist(&Entry{Kind: KindLPO, Dst: 64, Subject: 0, Payload: payload(8)}, nil)
		th.Advance(cfg.TransferCycles + 10)
		// Crash now: accepted entries must be flushed by ADR.
		img := f.FlushAll()
		if !bytes.Equal(img.Read(0), payload(7)) || !bytes.Equal(img.Read(64), payload(8)) {
			t.Error("flush did not persist accepted WPQ entries")
		}
		th.Kernel().Halt() // power failure: nothing drains after the crash
	})
	k.MustRun()
	if st.Get(stats.PMWrites) != 0 {
		t.Fatalf("flush must not count as drain traffic, got %d", st.Get(stats.PMWrites))
	}
}

func TestUnacceptedArrivalsLostOnCrash(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Controllers, cfg.ChannelsPerMC = 1, 1
	cfg.WPQEntries = 1
	cfg.PMWriteCycles = 100000
	k, _, f := testFabric(cfg)
	k.Spawn("t", func(th *sim.Thread) {
		f.SubmitPersist(&Entry{Kind: KindDPO, Dst: 0, Payload: payload(1)}, nil)
		f.SubmitPersist(&Entry{Kind: KindDPO, Dst: 64, Payload: payload(2)}, nil) // waits for space
		th.Advance(cfg.TransferCycles + 10)
		img := f.FlushAll()
		if !img.Has(0) {
			t.Error("accepted entry must survive crash")
		}
		if img.Has(64) {
			t.Error("arrival-queue entry must NOT survive crash (never accepted)")
		}
	})
	k.MustRun()
}

func TestLHWPQLifecycle(t *testing.T) {
	q := newLHWPQ(2)
	r1 := arch.MakeRID(0, 1)
	r2 := arch.MakeRID(0, 2)
	r3 := arch.MakeRID(0, 3)
	if !q.HasSpaceFor(r1) {
		t.Fatal("empty queue must have space")
	}
	q.Open(r1, 1024)
	q.Open(r2, 2048)
	if q.HasSpaceFor(r3) {
		t.Fatal("queue of capacity 2 with 2 regions must be full for a third")
	}
	if !q.HasSpaceFor(r1) {
		t.Fatal("a region already holding an entry always has space")
	}
	closed := q.BeginClose(r1)
	if closed == nil || closed.HeaderAddr != 1024 {
		t.Fatal("BeginClose must return the header")
	}
	// A closing record still occupies its slot until the header write is
	// accepted by the WPQ (the entry never leaves the persistence domain).
	if q.HasSpaceFor(r3) {
		t.Fatal("closing record must still hold its slot")
	}
	if len(q.Snapshot()) != 2 {
		t.Fatal("closing record must appear in crash snapshots")
	}
	q.FinishClose(closed.HeaderAddr)
	if !q.HasSpaceFor(r3) {
		t.Fatal("finishing the close frees the slot")
	}
	q.Release(r2)
	if q.Len() != 0 {
		t.Fatalf("Len = %d after release, want 0", q.Len())
	}
}

func TestLHWPQSnapshotIsDeepCopy(t *testing.T) {
	q := newLHWPQ(4)
	r := arch.MakeRID(1, 1)
	h := q.Open(r, 512)
	h.DataLines = append(h.DataLines, 64)
	h.LogLines = append(h.LogLines, 4096)
	snap := q.Snapshot()
	h.DataLines[0] = 9999
	if snap[0].DataLines[0] != 64 {
		t.Fatal("snapshot must not alias live header")
	}
}

func TestReadLatencyScalesWithPMMultiplier(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PMLatencyMult = 4
	_, st, f := testFabric(cfg)
	pm := f.ReadLatency(0, true)
	dram := f.ReadLatency(0, false)
	if pm != cfg.TransferCycles+4*cfg.PMReadCycles {
		t.Fatalf("PM read latency = %d", pm)
	}
	if dram != cfg.TransferCycles+cfg.DRAMReadCycles {
		t.Fatalf("DRAM read latency = %d", dram)
	}
	if st.Get(stats.PMReads) != 1 || st.Get(stats.DRAMReads) != 1 {
		t.Fatal("read counters not incremented")
	}
}

func TestQuiesced(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PMWriteCycles = 50
	k, _, f := testFabric(cfg)
	k.Spawn("t", func(th *sim.Thread) {
		if !f.Quiesced() {
			t.Error("fresh fabric must be quiesced")
		}
		f.SubmitPersist(&Entry{Kind: KindDPO, Dst: 0, Payload: payload(1)}, nil)
		th.Advance(cfg.TransferCycles + 1)
		if f.Quiesced() {
			t.Error("fabric with queued work must not be quiesced")
		}
		th.Advance(10000)
		if !f.Quiesced() {
			t.Error("fabric must quiesce after drain")
		}
	})
	k.MustRun()
}

func TestImageCloneIndependent(t *testing.T) {
	im := NewImage()
	im.Write(0, payload(1))
	cl := im.Clone()
	im.Write(0, payload(2))
	if !bytes.Equal(cl.Read(0), payload(1)) {
		t.Fatal("clone mutated by original write")
	}
	if cl.Len() != 1 {
		t.Fatalf("clone Len = %d", cl.Len())
	}
}

func TestSupersedeDPO(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Controllers, cfg.ChannelsPerMC = 1, 1
	cfg.PMWriteCycles = 10000
	k, st, f := testFabric(cfg)
	line := arch.LineAddr(64)
	k.Spawn("t", func(th *sim.Thread) {
		f.SubmitPersist(&Entry{Kind: KindDPO, Dst: 0, Payload: payload(0)}, nil) // occupies drain
		f.SubmitPersist(&Entry{Kind: KindDPO, Dst: line, Payload: payload(1)}, nil)
		f.SubmitPersist(&Entry{Kind: KindDPO, Dst: line, Payload: payload(2)}, nil)
		th.Advance(cfg.TransferCycles + 5)
		if n := f.SupersedeDPO(line); n != 2 {
			t.Errorf("superseded %d, want 2", n)
		}
		th.Advance(100000)
	})
	k.MustRun()
	if st.Get(stats.DPOsDropped) != 2 {
		t.Fatalf("DPOsDropped = %d", st.Get(stats.DPOsDropped))
	}
}

func TestNUMARemotePenalty(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NUMARemotePenalty = 500
	_, _, f := testFabric(cfg)
	// Channels 0,1 local; 2,3 remote (4 channels total).
	localLine := arch.LineAddr(0)             // channel 0
	remoteLine := arch.LineAddr(2 * 64)       // channel 2
	local := f.ReadLatency(localLine, true)   // transfer + PM read
	remote := f.ReadLatency(remoteLine, true) // + penalty
	if remote != local+500 {
		t.Fatalf("remote read = %d, local = %d, want +500", remote, local)
	}
}

func TestNUMAPersistPenalty(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NUMARemotePenalty = 500
	k, _, f := testFabric(cfg)
	var localAt, remoteAt uint64
	k.Spawn("t", func(th *sim.Thread) {
		f.SubmitPersist(&Entry{Kind: KindDPO, Dst: 0, Payload: payload(1)}, func(at uint64) { localAt = at })
		f.SubmitPersist(&Entry{Kind: KindDPO, Dst: 2 * 64, Payload: payload(2)}, func(at uint64) { remoteAt = at })
		th.Advance(100000)
	})
	k.MustRun()
	if remoteAt != localAt+500 {
		t.Fatalf("remote accept at %d, local at %d, want +500", remoteAt, localAt)
	}
}

func TestNUMAOffByDefault(t *testing.T) {
	_, _, f := testFabric(DefaultConfig())
	if f.ReadLatency(0, true) != f.ReadLatency(2*64, true) {
		t.Fatal("channels must be symmetric without NUMA penalty")
	}
}

// TestEntryRingWrapsAndFilters drives the WPQ ring across its wrap point
// with a drop in the middle: order must hold and freed slots be cleared.
func TestEntryRingWrapsAndFilters(t *testing.T) {
	es := make([]*Entry, 5)
	for i := range es {
		es[i] = &Entry{Dst: arch.LineAddr(i * arch.LineSize)}
	}
	r := entryRing{buf: make([]*Entry, 3)}
	r.push(es[0])
	r.push(es[1])
	r.pop()
	r.push(es[2])
	r.push(es[3]) // wraps into slot 0
	r.filter(func(e *Entry) bool { return e != es[2] })
	r.push(es[4])
	want := []*Entry{es[1], es[3], es[4]}
	if r.n != len(want) {
		t.Fatalf("ring holds %d entries, want %d", r.n, len(want))
	}
	for i, e := range want {
		if r.at(i) != e {
			t.Fatalf("entry %d is %v, want %v", i, r.at(i).Dst, e.Dst)
		}
	}
	r.pop()
	r.pop()
	r.pop()
	for i, e := range r.buf {
		if e != nil {
			t.Fatalf("slot %d still holds an entry after the ring emptied", i)
		}
	}
}
