package workload

import (
	"fmt"

	"asap/internal/sim"
)

// HashMap (HM) inserts and updates entries in a chained hash table. The
// bucket array lives in persistent memory; locking is striped so threads
// on different buckets proceed in parallel. Node layout:
//
//	key(8) | next(8) | value[ValueBytes]
type HashMap struct {
	stripes  []sim.Mutex
	buckets  uint64 // persistent array of bucket head pointers
	nbuckets uint64
	cntCells uint64 // per-stripe count cells, one line apart
	vbytes   int
	keyspace uint64
}

// NewHashMap returns an empty HM benchmark.
func NewHashMap() *HashMap { return &HashMap{} }

// Name implements Benchmark.
func (h *HashMap) Name() string { return "HM" }

const hmNodeHdr = 16

func (h *HashMap) bucketOf(key uint64) uint64 { return key % h.nbuckets }

// Setup implements Benchmark.
func (h *HashMap) Setup(c *Ctx, cfg Config) {
	h.vbytes = cfg.ValueBytes
	h.keyspace = uint64(cfg.InitialItems) * 2
	h.nbuckets = uint64(cfg.InitialItems)
	if h.nbuckets == 0 {
		h.nbuckets = 16
	}
	h.buckets = c.Alloc(int(h.nbuckets) * 8)
	h.stripes = make([]sim.Mutex, 16)
	// One count cell per stripe, a line apart, so each is only ever
	// updated under its stripe lock.
	h.cntCells = c.Alloc(64 * len(h.stripes))
	for i := 0; i < cfg.InitialItems; i++ {
		h.put(c, c.Rng.Uint64()%h.keyspace, uint64(i))
	}
}

// put inserts or updates key.
func (h *HashMap) put(c *Ctx, key, tag uint64) {
	head := h.buckets + 8*h.bucketOf(key)
	cur := c.LoadU64(head)
	for cur != 0 {
		if c.LoadU64(cur) == key {
			c.FillValue(cur+hmNodeHdr, h.vbytes, tag)
			return
		}
		cur = c.LoadU64(cur + 8)
	}
	n := c.Alloc(hmNodeHdr + h.vbytes)
	c.StoreU64(n, key)
	c.StoreU64(n+8, c.LoadU64(head))
	c.FillValue(n+hmNodeHdr, h.vbytes, tag)
	c.StoreU64(head, n)
	cnt := h.cntCells + 64*(h.bucketOf(key)%uint64(len(h.stripes)))
	c.StoreU64(cnt, c.LoadU64(cnt)+1)
}

// Op implements Benchmark: one put in an atomic region under the key's
// stripe lock.
func (h *HashMap) Op(c *Ctx, i int) {
	key := c.Key(h.keyspace)
	mu := &h.stripes[h.bucketOf(key)%uint64(len(h.stripes))]
	mu.Lock(c.T)
	c.Begin()
	h.put(c, key, uint64(i))
	c.End()
	mu.Unlock(c.T)
}

// Check implements Benchmark: counted size equals reachable nodes, every
// node hashes to its bucket, no duplicate keys per chain.
func (h *HashMap) Check(read func(uint64) uint64) string {
	count := uint64(0)
	for b := uint64(0); b < h.nbuckets; b++ {
		seen := map[uint64]bool{}
		cur := read(h.buckets + 8*b)
		for cur != 0 {
			k := read(cur)
			if h.bucketOf(k) != b {
				return fmt.Sprintf("HM: key %d in wrong bucket %d", k, b)
			}
			if seen[k] {
				return fmt.Sprintf("HM: duplicate key %d in bucket %d", k, b)
			}
			seen[k] = true
			count++
			cur = read(cur + 8)
		}
	}
	var got uint64
	for s := 0; s < len(h.stripes); s++ {
		got += read(h.cntCells + 64*uint64(s))
	}
	if got != count {
		return fmt.Sprintf("HM: count cells %d != reachable %d", got, count)
	}
	return ""
}
