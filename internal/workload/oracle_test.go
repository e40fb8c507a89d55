package workload

import (
	"testing"
	"testing/quick"

	"asap/internal/sim"
)

// oracleRun drives a benchmark's insert path with a known key sequence
// under NP (fast), then calls verify while the simulation is still live
// (Ctx accessors only work from inside a running simulated thread).
func oracleRun(t *testing.T, b Benchmark, cfg Config, insert func(c *Ctx, key, tag uint64), keys []uint64, verify func(ctx *Ctx, distinct map[uint64]bool) bool) bool {
	t.Helper()
	env := newEnv("NP", nil)
	distinct := map[uint64]bool{}
	ok := false
	env.M.K.Spawn("driver", func(th *sim.Thread) {
		env.S.InitThread(th)
		ctx := NewCtx(env, th, 1)
		b.Setup(ctx, cfg)
		for i, k := range keys {
			insert(ctx, k, uint64(i))
			distinct[k] = true
		}
		ok = verify(ctx, distinct)
	})
	env.M.K.MustRun()
	return ok
}

// setupOnlyCfg keeps the initial structure empty so the oracle owns every
// key.
func setupOnlyCfg() Config {
	return Config{ValueBytes: 64, InitialItems: 0, Threads: 1, OpsPerThread: 0, Seed: 3}
}

func boundKeys(raw []uint16) []uint64 {
	keys := make([]uint64, 0, len(raw)+1)
	for _, r := range raw {
		keys = append(keys, uint64(r%512))
	}
	if len(keys) == 0 {
		keys = []uint64{7}
	}
	return keys
}

func TestBinaryTreeMatchesOracle(t *testing.T) {
	f := func(raw []uint16) bool {
		b := NewBinaryTree()
		keys := boundKeys(raw)
		return oracleRun(t, b, setupOnlyCfg(), func(c *Ctx, k, tag uint64) { b.insert(c, k, tag) }, keys,
			func(ctx *Ctx, distinct map[uint64]bool) bool {
				if msg := b.Check(ctx.LoadU64); msg != "" {
					t.Log(msg)
					return false
				}
				return ctx.LoadU64(b.cntCell) == uint64(len(distinct))
			})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestBTreeMatchesOracle(t *testing.T) {
	f := func(raw []uint16) bool {
		b := NewBTree()
		keys := boundKeys(raw)
		return oracleRun(t, b, setupOnlyCfg(), func(c *Ctx, k, tag uint64) { b.insert(c, k, tag) }, keys,
			func(ctx *Ctx, distinct map[uint64]bool) bool {
				if msg := b.Check(ctx.LoadU64); msg != "" {
					t.Log(msg)
					return false
				}
				return ctx.LoadU64(b.cntCell) == uint64(len(distinct))
			})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// ctreeHas walks the crit-bit tree through read to the one leaf key could
// live in and reports whether it holds key.
func ctreeHas(ct *CTree, read func(uint64) uint64, key uint64) bool {
	p := read(ct.rootCell)
	if p == 0 {
		return false
	}
	for !ctIsLeaf(p) {
		bit := uint(read(ctAddr(p)))
		p = read(ctAddr(p) + 8 + 8*uint64(dirOf(key, bit)))
	}
	return read(ctAddr(p)) == key
}

// btreeHas searches the B-tree through read and reports whether it holds
// key.
func btreeHas(b *BTree, read func(uint64) uint64, key uint64) bool {
	n := read(b.rootCell)
	for {
		cnt := int(read(n + btOffN))
		i := 0
		for i < cnt && key > read(n+btOffKeys+8*uint64(i)) {
			i++
		}
		if i < cnt && read(n+btOffKeys+8*uint64(i)) == key {
			return true
		}
		if read(n+btOffLeaf) != 0 {
			return false
		}
		n = read(n + btOffKids + 8*uint64(i))
	}
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
			if !btreeHas(b, ctx.LoadU64, i*3) {
				t.Errorf("key %d missing", i*3)
			}
			if btreeHas(b, ctx.LoadU64, i*3+1) {
				t.Errorf("absent key %d found", i*3+1)
			}
		}
	})
	env.M.K.MustRun()
}

func TestCTreeMatchesOracleWithLookups(t *testing.T) {
	f := func(raw []uint16) bool {
		ct := NewCTree()
		keys := boundKeys(raw)
		return oracleRun(t, ct, setupOnlyCfg(), func(c *Ctx, k, tag uint64) { ct.insert(c, k, tag) }, keys,
			func(ctx *Ctx, distinct map[uint64]bool) bool {
				if msg := ct.Check(ctx.LoadU64); msg != "" {
					t.Log(msg)
					return false
				}
				if ctx.LoadU64(ct.cntCell) != uint64(len(distinct)) {
					return false
				}
				// Every inserted key must be findable; absent keys must not.
				for k := range distinct {
					if !ctreeHas(ct, ctx.LoadU64, k) {
						return false
					}
				}
				for probe := uint64(600); probe < 610; probe++ {
					if !distinct[probe] && ctreeHas(ct, ctx.LoadU64, probe) {
						return false
					}
				}
				return true
			})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestRBTreeMatchesOracle(t *testing.T) {
	f := func(raw []uint16) bool {
		r := NewRBTree()
		keys := boundKeys(raw)
		return oracleRun(t, r, setupOnlyCfg(), func(c *Ctx, k, tag uint64) { r.insert(c, k, tag) }, keys,
			func(ctx *Ctx, distinct map[uint64]bool) bool {
				if msg := r.Check(ctx.LoadU64); msg != "" {
					t.Log(msg)
					return false
				}
				return ctx.LoadU64(r.cntCell) == uint64(len(distinct))
			})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestRBTreeSequentialAndReverseInserts(t *testing.T) {
	// Adversarial orders force the full rotation/recolor repertoire.
	for name, gen := range map[string]func(i int) uint64{
		"ascending":  func(i int) uint64 { return uint64(i) },
		"descending": func(i int) uint64 { return uint64(500 - i) },
		"zigzag":     func(i int) uint64 { return uint64((i*7919 + 13) % 501) },
	} {
		r := NewRBTree()
		keys := make([]uint64, 300)
		for i := range keys {
			keys[i] = gen(i)
		}
		ok := oracleRun(t, r, setupOnlyCfg(), func(c *Ctx, k, tag uint64) { r.insert(c, k, tag) }, keys,
			func(ctx *Ctx, distinct map[uint64]bool) bool {
				if msg := r.Check(ctx.LoadU64); msg != "" {
					t.Errorf("%s: %s", name, msg)
					return false
				}
				if got := ctx.LoadU64(r.cntCell); got != uint64(len(distinct)) {
					t.Errorf("%s: count %d != %d", name, got, len(distinct))
					return false
				}
				return true
			})
		if !ok {
			t.Fatalf("%s: oracle run failed", name)
		}
	}
}

func TestHashMapMatchesOracle(t *testing.T) {
	f := func(raw []uint16) bool {
		h := NewHashMap()
		cfg := setupOnlyCfg()
		cfg.InitialItems = 16 // keyspace must be nonzero for put's modulo
		keys := boundKeys(raw)
		return oracleRun(t, h, cfg, func(c *Ctx, k, tag uint64) { h.put(c, k%h.keyspace, tag) }, keys,
			func(ctx *Ctx, distinct map[uint64]bool) bool {
				if msg := h.Check(ctx.LoadU64); msg != "" {
					t.Log(msg)
					return false
				}
				return true
			})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestEchoVersionsAreDense(t *testing.T) {
	e := NewEcho()
	cfg := setupOnlyCfg()
	cfg.InitialItems = 32 // nonzero keyspace; Setup's seed puts are counted
	keys := make([]uint64, 200)
	for i := range keys {
		keys[i] = uint64(i % 20) // heavy key reuse -> deep version chains
	}
	ok := oracleRun(t, e, cfg, func(c *Ctx, k, tag uint64) { e.put(c, k, tag) }, keys,
		func(ctx *Ctx, distinct map[uint64]bool) bool {
			if msg := e.Check(ctx.LoadU64); msg != "" {
				t.Error(msg)
				return false
			}
			// A reused key's version grows by one per put.
			if got := e.get(ctx, 0); got < 10 {
				t.Errorf("key 0 version = %d, want >= 10", got)
				return false
			}
			return true
		})
	if !ok {
		t.Fatal("echo oracle failed")
	}
}

func TestQueueFIFOOrder(t *testing.T) {
	q := NewQueue()
	env := newEnv("NP", nil)
	env.M.K.Spawn("driver", func(th *sim.Thread) {
		env.S.InitThread(th)
		ctx := NewCtx(env, th, 1)
		q.Setup(ctx, setupOnlyCfg())
		for i := uint64(0); i < 10; i++ {
			q.enqueue(ctx, 100+i)
		}
		// Dequeue half and verify FIFO by reading the head's value tag.
		for i := uint64(0); i < 5; i++ {
			head := ctx.LoadU64(q.headCell)
			tag := ctx.LoadU64(head + qNodeHdr)
			if tag != 100+i {
				t.Errorf("dequeue %d: head tag = %d, want %d", i, tag, 100+i)
			}
			q.dequeue(ctx)
		}
		if msg := q.Check(ctx.LoadU64); msg != "" {
			t.Error(msg)
		}
	})
	env.M.K.MustRun()
}
