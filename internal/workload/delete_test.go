package workload

import (
	"testing"
	"testing/quick"

	"asap/internal/sim"
)

// mixedOracle runs an interleaved insert/delete sequence against a Go map
// oracle and verifies via the benchmark's own Check plus the live count.
type mixedOps struct {
	insert func(c *Ctx, key, tag uint64)
	del    func(c *Ctx, key uint64) bool
	check  func(c *Ctx) string
	count  func(c *Ctx) uint64
	// preload seeds the oracle with keys Setup already inserted.
	preload func(c *Ctx, oracle map[uint64]bool)
}

func runMixedOracle(t *testing.T, b Benchmark, cfg Config, ops mixedOps, keys []uint64, delMask []bool) bool {
	t.Helper()
	env := newEnv("NP", nil)
	oracle := map[uint64]bool{}
	ok := false
	env.M.K.Spawn("driver", func(th *sim.Thread) {
		env.S.InitThread(th)
		ctx := NewCtx(env, th, 1)
		b.Setup(ctx, cfg)
		if ops.preload != nil {
			ops.preload(ctx, oracle)
		}
		for i, k := range keys {
			if delMask[i%len(delMask)] {
				got := ops.del(ctx, k)
				want := oracle[k]
				if got != want {
					t.Errorf("delete(%d) = %v, oracle says %v", k, got, want)
					return
				}
				delete(oracle, k)
			} else {
				ops.insert(ctx, k, uint64(i))
				oracle[k] = true
			}
			if i%16 == 15 { // keep checks frequent but affordable
				if msg := ops.check(ctx); msg != "" {
					t.Error(msg)
					return
				}
			}
		}
		if msg := ops.check(ctx); msg != "" {
			t.Error(msg)
			return
		}
		ok = ops.count(ctx) == uint64(len(oracle))
		if !ok {
			t.Errorf("count %d != oracle %d", ops.count(ctx), len(oracle))
		}
	})
	env.M.K.MustRun()
	return ok
}

func TestRBTreeDeleteMatchesOracle(t *testing.T) {
	f := func(raw []uint16, mask []bool) bool {
		if len(mask) == 0 {
			mask = []bool{false, true}
		}
		r := NewRBTree()
		keys := boundKeys(raw)
		return runMixedOracle(t, r, setupOnlyCfg(), mixedOps{
			insert: func(c *Ctx, k, tag uint64) { r.insert(c, k, tag) },
			del:    func(c *Ctx, k uint64) bool { return r.delete(c, k) },
			check:  r.Check,
			count:  func(c *Ctx) uint64 { return c.LoadU64(r.cntCell) },
		}, keys, mask)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestRBTreeDeleteDrainsCompletely(t *testing.T) {
	// Insert 200 keys then delete all of them; the tree must be empty and
	// valid after every step (exercises every fixup case).
	r := NewRBTree()
	env := newEnv("NP", nil)
	env.M.K.Spawn("driver", func(th *sim.Thread) {
		env.S.InitThread(th)
		ctx := NewCtx(env, th, 1)
		r.Setup(ctx, setupOnlyCfg())
		for i := 0; i < 200; i++ {
			r.insert(ctx, uint64(i*7%211), uint64(i))
		}
		for i := 0; i < 211; i++ {
			r.delete(ctx, uint64(i))
			if msg := r.Check(ctx); msg != "" {
				t.Errorf("after deleting %d: %s", i, msg)
				return
			}
		}
		if got := ctx.LoadU64(r.cntCell); got != 0 {
			t.Errorf("tree not empty: %d nodes", got)
		}
	})
	env.M.K.MustRun()
}

func TestBinaryTreeDeleteMatchesOracle(t *testing.T) {
	f := func(raw []uint16, mask []bool) bool {
		if len(mask) == 0 {
			mask = []bool{false, false, true}
		}
		b := NewBinaryTree()
		keys := boundKeys(raw)
		return runMixedOracle(t, b, setupOnlyCfg(), mixedOps{
			insert: func(c *Ctx, k, tag uint64) { b.insert(c, k, tag) },
			del:    func(c *Ctx, k uint64) bool { return b.delete(c, k) },
			check:  b.Check,
			count:  func(c *Ctx) uint64 { return c.LoadU64(b.cntCell) },
		}, keys, mask)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestHashMapDeleteMatchesOracle(t *testing.T) {
	f := func(raw []uint16, mask []bool) bool {
		if len(mask) == 0 {
			mask = []bool{true, false}
		}
		h := NewHashMap()
		cfg := setupOnlyCfg()
		cfg.InitialItems = 16
		keys := boundKeys(raw)
		for i := range keys {
			keys[i] %= h.keyspaceOrDefault()
		}
		return runMixedOracle(t, h, cfg, mixedOps{
			insert: func(c *Ctx, k, tag uint64) { h.put(c, k, tag) },
			del:    func(c *Ctx, k uint64) bool { return h.delete(c, k) },
			check:  h.Check,
			count: func(c *Ctx) uint64 {
				var n uint64
				for s := 0; s < len(h.stripes); s++ {
					n += c.LoadU64(h.cntCells + 64*uint64(s))
				}
				return n
			},
			// Setup pre-populated the table: teach the oracle its keys.
			preload: func(c *Ctx, oracle map[uint64]bool) {
				for bkt := uint64(0); bkt < h.nbuckets; bkt++ {
					for cur := c.LoadU64(h.buckets + 8*bkt); cur != 0; cur = c.LoadU64(cur + 8) {
						oracle[c.LoadU64(cur)] = true
					}
				}
			},
		}, keys, mask)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// keyspaceOrDefault guards the test against Setup not having run yet.
func (h *HashMap) keyspaceOrDefault() uint64 {
	if h.keyspace == 0 {
		return 32
	}
	return h.keyspace
}

func TestDeleteEveryEndToEnd(t *testing.T) {
	// The DeleteEvery knob composes with the full multi-threaded driver
	// under ASAP, and the structures stay consistent.
	for _, name := range []string{"BN", "BT", "CT", "HM", "RB"} {
		env := newEnv("ASAP", nil)
		cfg := smallCfg()
		cfg.DeleteEvery = 3
		res := Run(env, []Benchmark{ByName(name)}, cfg)
		if res.CheckErr != "" {
			t.Fatalf("%s with deletions: %s", name, res.CheckErr)
		}
	}
}

func TestBTreeDeleteMatchesOracle(t *testing.T) {
	f := func(raw []uint16, mask []bool) bool {
		if len(mask) == 0 {
			mask = []bool{false, true}
		}
		b := NewBTree()
		keys := boundKeys(raw)
		return runMixedOracle(t, b, setupOnlyCfg(), mixedOps{
			insert: func(c *Ctx, k, tag uint64) { b.insert(c, k, tag) },
			del:    func(c *Ctx, k uint64) bool { return b.delete(c, k) },
			check:  b.Check,
			count:  func(c *Ctx) uint64 { return c.LoadU64(b.cntCell) },
		}, keys, mask)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestBTreeDeleteDrainsCompletely(t *testing.T) {
	// Insert then delete every key: exercises both borrow directions,
	// merges and root shrinking.
	b := NewBTree()
	env := newEnv("NP", nil)
	env.M.K.Spawn("driver", func(th *sim.Thread) {
		env.S.InitThread(th)
		ctx := NewCtx(env, th, 1)
		b.Setup(ctx, setupOnlyCfg())
		for i := 0; i < 300; i++ {
			b.insert(ctx, uint64(i*13%307), uint64(i))
		}
		for i := 0; i < 307; i++ {
			b.delete(ctx, uint64(i))
			if msg := b.Check(ctx); msg != "" {
				t.Errorf("after deleting %d: %s", i, msg)
				return
			}
		}
		if got := ctx.LoadU64(b.cntCell); got != 0 {
			t.Errorf("tree not empty: %d keys", got)
		}
	})
	env.M.K.MustRun()
}

func TestBTreeLookup(t *testing.T) {
	b := NewBTree()
	env := newEnv("NP", nil)
	env.M.K.Spawn("driver", func(th *sim.Thread) {
		env.S.InitThread(th)
		ctx := NewCtx(env, th, 1)
		b.Setup(ctx, setupOnlyCfg())
		for i := uint64(0); i < 50; i++ {
			b.insert(ctx, i*3, i)
		}
		for i := uint64(0); i < 50; i++ {
			if b.lookup(ctx, i*3) == 0 {
				t.Errorf("key %d missing", i*3)
			}
			if b.lookup(ctx, i*3+1) != 0 {
				t.Errorf("absent key %d found", i*3+1)
			}
		}
	})
	env.M.K.MustRun()
}

func TestCTreeDeleteMatchesOracle(t *testing.T) {
	f := func(raw []uint16, mask []bool) bool {
		if len(mask) == 0 {
			mask = []bool{false, true}
		}
		ct := NewCTree()
		keys := boundKeys(raw)
		return runMixedOracle(t, ct, setupOnlyCfg(), mixedOps{
			insert: func(c *Ctx, k, tag uint64) { ct.insert(c, k, tag) },
			del:    func(c *Ctx, k uint64) bool { return ct.delete(c, k) },
			check:  ct.Check,
			count:  func(c *Ctx) uint64 { return c.LoadU64(ct.cntCell) },
		}, keys, mask)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestCTreeDeleteDrainsCompletely(t *testing.T) {
	ct := NewCTree()
	env := newEnv("NP", nil)
	env.M.K.Spawn("driver", func(th *sim.Thread) {
		env.S.InitThread(th)
		ctx := NewCtx(env, th, 1)
		ct.Setup(ctx, setupOnlyCfg())
		for i := 0; i < 200; i++ {
			ct.insert(ctx, uint64(i*11%223), uint64(i))
		}
		for i := 0; i < 223; i++ {
			ct.delete(ctx, uint64(i))
			if msg := ct.Check(ctx); msg != "" {
				t.Errorf("after deleting %d: %s", i, msg)
				return
			}
		}
		if got := ctx.LoadU64(ct.cntCell); got != 0 {
			t.Errorf("trie not empty: %d leaves", got)
		}
		// And lookups on the empty trie behave.
		if ct.lookup(ctx, 5) != 0 {
			t.Error("lookup on empty trie found something")
		}
	})
	env.M.K.MustRun()
}
