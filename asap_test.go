package asap

import (
	"bytes"
	"testing"
)

func TestQuickstartFlow(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cores = 4
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cell := sys.Malloc(64)
	sys.Spawn("w", func(th *Thread) {
		th.Begin()
		th.StoreUint64(cell, 7)
		th.End()
		th.Fence()
		th.Drain()
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	st := sys.Stats()
	if st["region.committed"] != 1 {
		t.Fatalf("committed = %d", st["region.committed"])
	}
	if st["pm.writes"] == 0 {
		t.Fatal("nothing persisted")
	}
}

func TestEverySchemeConstructs(t *testing.T) {
	for _, s := range append(Schemes(), SchemeSWDPOOnly) {
		cfg := DefaultConfig()
		cfg.Scheme = s
		cfg.Cores = 2
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		cell := sys.Malloc(64)
		sys.Spawn("w", func(th *Thread) {
			th.Begin()
			th.StoreUint64(cell, 1)
			th.End()
			th.Drain()
		})
		if err := sys.Run(); err != nil {
			t.Fatal(err)
		}
		if sys.SchemeImpl().Name() != string(s) {
			t.Fatalf("scheme name %q != %q", sys.SchemeImpl().Name(), s)
		}
	}
}

func TestUnknownSchemeErrors(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scheme = "bogus"
	if _, err := NewSystem(cfg); err == nil {
		t.Fatal("expected error")
	}
}

func TestMutexAndMultiThread(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cores = 4
	sys, _ := NewSystem(cfg)
	counter := sys.Malloc(64)
	var mu Mutex
	for i := 0; i < 4; i++ {
		sys.Spawn("w", func(th *Thread) {
			for j := 0; j < 10; j++ {
				mu.Lock(th)
				th.Begin()
				th.StoreUint64(counter, th.LoadUint64(counter)+1)
				th.End()
				mu.Unlock(th)
			}
			th.Drain()
		})
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	// Verify through a fresh crash image: everything committed and
	// persisted.
	cs, err := sys.Crash()
	if err != nil {
		t.Fatal(err)
	}
	if got := cs.ReadUint64(counter); got != 40 {
		t.Fatalf("persisted counter = %d, want 40", got)
	}
}

func TestCrashAndRecoverThroughPublicAPI(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cores = 2
	cfg.MemoryControllers, cfg.ChannelsPerMC = 1, 1
	cfg.WPQEntries = 1
	sys, _ := NewSystem(cfg)
	// Slow PM via the public multiplier.
	cfg2 := cfg
	cfg2.PMLatencyMultiplier = 16
	sys, _ = NewSystem(cfg2)

	a := sys.Malloc(64)
	b := sys.Malloc(64)
	var crash *CrashState
	sys.Spawn("w", func(th *Thread) {
		th.Begin()
		th.StoreUint64(a, 1)
		th.End()
		th.Begin()
		th.StoreUint64(b, 2)
		th.End()
		var err error
		crash, err = sys.Crash()
		if err != nil {
			t.Error(err)
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	rep, err := crash.Recover()
	if err != nil {
		t.Fatal(err)
	}
	av, bv := crash.ReadUint64(a), crash.ReadUint64(b)
	// Atomic durability with ordering: b may only be present if a is.
	if bv == 2 && av != 1 {
		t.Fatalf("ordering violated after recovery: a=%d b=%d (report %+v)", av, bv, rep)
	}
}

func TestCrashRequiresASAP(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scheme = SchemeNP
	cfg.Cores = 2
	sys, _ := NewSystem(cfg)
	sys.Spawn("w", func(th *Thread) {})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Crash(); err == nil {
		t.Fatal("Crash should fail for non-ASAP schemes")
	}
}

func TestMallocFreeRoundTrip(t *testing.T) {
	sys, _ := NewSystem(DefaultConfig())
	sys.Spawn("w", func(th *Thread) {
		p := th.Malloc(128)
		th.StoreUint64(p, 9)
		if th.LoadUint64(p) != 9 {
			t.Error("round trip failed")
		}
		th.Free(p)
		th.Begin() // frees inside regions recycle at commit
		th.Free(th.Malloc(128))
		th.End()
		th.Drain()
		q := th.Malloc(128)
		if th.LoadUint64(q) != 9 {
			t.Error("recycled allocation should keep old contents (no unlogged zeroing)")
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestReadBytesSpansLines(t *testing.T) {
	sys, _ := NewSystem(DefaultConfig())
	base := sys.Malloc(256)
	payload := make([]byte, 200)
	for i := range payload {
		payload[i] = byte(i)
	}
	sys.Spawn("w", func(th *Thread) {
		th.Begin()
		th.Store(base+30, payload)
		th.End()
		th.Drain()
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	cs, _ := sys.Crash()
	got := cs.ReadBytes(base+30, 200)
	for i := range got {
		if got[i] != byte(i) {
			t.Fatalf("byte %d = %d, want %d", i, got[i], byte(i))
		}
	}
}

func TestCrashStateSaveLoadRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cores = 2
	cfg.MemoryControllers, cfg.ChannelsPerMC = 1, 1
	cfg.WPQEntries = 1
	cfg.PMLatencyMultiplier = 16
	sys, _ := NewSystem(cfg)
	a := sys.Malloc(64)
	b := sys.Malloc(64)
	var crash *CrashState
	sys.Spawn("w", func(th *Thread) {
		th.Begin()
		th.StoreUint64(a, 1)
		th.End()
		th.Begin()
		th.StoreUint64(b, 2)
		th.End()
		crash, _ = sys.Crash()
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := crash.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCrashState(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Recover the LOADED copy (as a fresh process would) and check the
	// same ordering invariant the live path guarantees.
	if _, err := loaded.Recover(); err != nil {
		t.Fatal(err)
	}
	av, bv := loaded.ReadUint64(a), loaded.ReadUint64(b)
	if bv == 2 && av != 1 {
		t.Fatalf("ordering violated after save/load recovery: a=%d b=%d", av, bv)
	}
}

func TestPublicMigrateAndVolatile(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cores = 4
	sys, _ := NewSystem(cfg)
	vol := sys.MallocVolatile(64)
	cell := sys.Malloc(64)
	sys.Spawn("w", func(th *Thread) {
		th.Begin()
		th.StoreUint64(cell, 1)
		th.StoreUint64(vol, 2) // volatile store: no logging
		th.Migrate(2)          // §5.7 context switch mid-region under ASAP
		th.StoreUint64(cell, 3)
		th.End()
		th.Compute(10)
		th.Drain()
		if th.LoadUint64(vol) != 2 || th.LoadUint64(cell) != 3 {
			t.Error("values lost across migration")
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if sys.Stats()["region.committed"] != 1 {
		t.Fatal("migrated region did not commit")
	}
	// Migrate under a non-ASAP scheme takes the generic path.
	cfg.Scheme = SchemeNP
	sys2, _ := NewSystem(cfg)
	sys2.Spawn("w", func(th *Thread) { th.Migrate(1) })
	if err := sys2.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAccessors(t *testing.T) {
	sys, _ := NewSystem(DefaultConfig())
	if sys.Config().Scheme != SchemeASAP {
		t.Fatal("config not retained")
	}
	if sys.Engine() == nil || sys.Machine() == nil {
		t.Fatal("accessors nil under ASAP")
	}
	if len(Schemes()) != 5 {
		t.Fatalf("Schemes() = %v", Schemes())
	}
	if sys.Now() != 0 {
		t.Fatal("fresh system clock nonzero")
	}
}

func TestASAPRedoThroughPublicAPI(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scheme = SchemeASAPRedo
	cfg.Cores = 2
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cell := sys.Malloc(64)
	sys.Spawn("w", func(th *Thread) {
		th.Begin()
		th.StoreUint64(cell, 5)
		th.End()
		th.Fence()
		th.Drain()
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if sys.Engine() != nil {
		t.Fatal("Engine() must be nil for non-undo schemes")
	}
	if _, err := sys.Crash(); err == nil {
		t.Fatal("Crash must refuse non-ASAP schemes")
	}
}

func TestCrashRecoverRestartContinue(t *testing.T) {
	// The full lifecycle: run, power failure, recovery, RESTART on the
	// recovered image, continue working — and the combined history is
	// consistent.
	cfg := DefaultConfig()
	cfg.Cores = 4
	cfg.MemoryControllers, cfg.ChannelsPerMC = 1, 2
	cfg.WPQEntries = 4
	cfg.PMLatencyMultiplier = 8
	sys, _ := NewSystem(cfg)

	counter := sys.Malloc(64)
	const maxInc = 40
	markers := sys.Malloc(64 * (maxInc + 1))
	var mu Mutex
	var crash *CrashState
	inc := func(th *Thread) {
		mu.Lock(th)
		th.Begin()
		v := th.LoadUint64(counter) + 1
		th.StoreUint64(counter, v)
		th.StoreUint64(markers+64*v, v)
		th.End()
		mu.Unlock(th)
		th.Compute(25)
	}
	for w := 0; w < 2; w++ {
		sys.Spawn("w", func(th *Thread) {
			for i := 0; i < 10; i++ {
				if crash != nil {
					return
				}
				inc(th)
				if th.Now() > 5_000 && crash == nil {
					crash, _ = sys.Crash()
					return
				}
			}
			th.Drain()
		})
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if crash == nil {
		crash, _ = sys.Crash()
	}
	if _, err := crash.Recover(); err != nil {
		t.Fatal(err)
	}
	recovered := crash.ReadUint64(counter)

	// Restart: a new machine with the recovered image as its PM contents.
	cfg2 := DefaultConfig()
	cfg2.Cores = 4
	sys2, err := NewSystemFromCrash(cfg2, crash)
	if err != nil {
		t.Fatal(err)
	}
	var mu2 Mutex
	for w := 0; w < 2; w++ {
		sys2.Spawn("w", func(th *Thread) {
			for i := 0; i < 5; i++ {
				mu2.Lock(th)
				th.Begin()
				v := th.LoadUint64(counter) + 1
				th.StoreUint64(counter, v)
				th.StoreUint64(markers+64*v, v)
				th.End()
				mu2.Unlock(th)
			}
			th.Drain()
		})
	}
	if err := sys2.Run(); err != nil {
		t.Fatal(err)
	}

	final, _ := sys2.Crash()
	got := final.ReadUint64(counter)
	if got != recovered+10 {
		t.Fatalf("final counter %d, want recovered %d + 10 new increments", got, recovered)
	}
	// The whole history — pre-crash survivors and post-restart work — must
	// form one dense marker sequence.
	for v := uint64(1); v <= got; v++ {
		if final.ReadUint64(markers+64*v) != v {
			t.Fatalf("marker[%d] missing after restart-continue", v)
		}
	}
}
