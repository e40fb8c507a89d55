// kvstore builds a persistent hash-table key-value store on the public
// API — the Echo-style scenario from the paper's motivation — and shows
// the §5.2 pattern: batches of updates run with asynchronous commits, and
// a single asap_fence makes everything durable before the confirmation
// "I/O".
package main

import (
	"fmt"

	"asap"
)

const (
	buckets   = 256
	nodeKey   = 0  // key(8)
	nodeNext  = 8  // next(8)
	nodeValue = 16 // value(48)
	nodeSize  = 64
)

// kv is a persistent chained hash table. All state lives in simulated
// persistent memory; the Go struct holds only addresses.
type kv struct {
	dir uint64 // bucket head array
	mu  [16]asap.Mutex
}

func newKV(sys *asap.System) *kv {
	return &kv{dir: sys.Malloc(buckets * 8)}
}

func (s *kv) bucket(key uint64) uint64 { return key % buckets }

// Put inserts or updates key atomically.
func (s *kv) Put(t *asap.Thread, key, value uint64) {
	mu := &s.mu[s.bucket(key)%16]
	mu.Lock(t)
	t.Begin()
	head := s.dir + 8*s.bucket(key)
	for cur := t.LoadUint64(head); cur != 0; cur = t.LoadUint64(cur + nodeNext) {
		if t.LoadUint64(cur+nodeKey) == key {
			t.StoreUint64(cur+nodeValue, value)
			t.End()
			mu.Unlock(t)
			return
		}
	}
	n := t.Malloc(nodeSize)
	t.StoreUint64(n+nodeKey, key)
	t.StoreUint64(n+nodeNext, t.LoadUint64(head))
	t.StoreUint64(n+nodeValue, value)
	t.StoreUint64(head, n)
	t.End()
	mu.Unlock(t)
}

func main() {
	sys, err := asap.NewSystem(asap.DefaultConfig())
	if err != nil {
		panic(err)
	}
	store := newKV(sys)

	// Four writers stream updates; each confirms its batch with one fence.
	for w := 0; w < 4; w++ {
		w := w
		sys.Spawn("writer", func(t *asap.Thread) {
			for i := 0; i < 100; i++ {
				key := uint64(w*100 + i)
				store.Put(t, key, key*10)
			}
			// One fence per batch, not per update: the asynchronous
			// commits overlap the whole batch, and only the confirmation
			// waits (§5.2).
			t.Fence()
			fmt.Printf("writer %d: batch of 100 durable at cycle %d\n", w, t.Now())
			t.Drain()
		})
	}
	if err := sys.Run(); err != nil {
		panic(err)
	}

	// Reopen the store through a crash image to prove durability.
	cs, err := sys.Crash()
	if err != nil {
		panic(err)
	}
	if _, err := cs.Recover(); err != nil {
		panic(err)
	}
	missing := 0
	// Walk the persisted directory directly.
	for key := uint64(0); key < 400; key++ {
		found := false
		for cur := cs.ReadUint64(store.dir + 8*(key%buckets)); cur != 0; cur = cs.ReadUint64(cur + nodeNext) {
			if cs.ReadUint64(cur+nodeKey) == key {
				if cs.ReadUint64(cur+nodeValue) != key*10 {
					panic("wrong persisted value")
				}
				found = true
				break
			}
		}
		if !found {
			missing++
		}
	}
	fmt.Printf("persisted image: %d/400 keys present after fences\n", 400-missing)
	st := sys.Stats()
	fmt.Printf("PM writes: %d, LPOs dropped: %d, DPOs dropped: %d\n",
		st["pm.writes"], st["lpo.dropped"], st["dpo.dropped"])
}
