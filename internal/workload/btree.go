package workload

import (
	"fmt"

	"asap/internal/sim"
)

// BTree (BT) inserts and updates entries in a B-tree of minimum degree 4
// (up to 7 keys and 8 children per node), the CLRS formulation with
// preemptive splitting on descent. Node layout (all nodes 192 B):
//
//	leaf(8) | n(8) | keys[7](56) | vals[7](56) | children[8](64)
//
// Values are separate ValueBytes allocations referenced from vals[i].
type BTree struct {
	mu       sim.Mutex
	rootCell uint64
	cntCell  uint64
	vbytes   int
	keyspace uint64
}

// NewBTree returns an empty BT benchmark.
func NewBTree() *BTree { return &BTree{} }

// Name implements Benchmark.
func (b *BTree) Name() string { return "BT" }

const (
	btDegree  = 4 // minimum degree t
	btMaxKeys = 2*btDegree - 1

	btOffLeaf = 0
	btOffN    = 8
	btOffKeys = 16
	btOffVals = btOffKeys + 8*btMaxKeys
	btOffKids = btOffVals + 8*btMaxKeys
	btNodeLen = btOffKids + 8*(btMaxKeys+1)
)

func (b *BTree) key(c *Ctx, n uint64, i int) uint64       { return c.LoadU64(n + btOffKeys + 8*uint64(i)) }
func (b *BTree) val(c *Ctx, n uint64, i int) uint64       { return c.LoadU64(n + btOffVals + 8*uint64(i)) }
func (b *BTree) kid(c *Ctx, n uint64, i int) uint64       { return c.LoadU64(n + btOffKids + 8*uint64(i)) }
func (b *BTree) setKey(c *Ctx, n uint64, i int, v uint64) { c.StoreU64(n+btOffKeys+8*uint64(i), v) }
func (b *BTree) setVal(c *Ctx, n uint64, i int, v uint64) { c.StoreU64(n+btOffVals+8*uint64(i), v) }
func (b *BTree) setKid(c *Ctx, n uint64, i int, v uint64) { c.StoreU64(n+btOffKids+8*uint64(i), v) }
func (b *BTree) count(c *Ctx, n uint64) int               { return int(c.LoadU64(n + btOffN)) }
func (b *BTree) setCount(c *Ctx, n uint64, v int)         { c.StoreU64(n+btOffN, uint64(v)) }
func (b *BTree) isLeaf(c *Ctx, n uint64) bool             { return c.LoadU64(n+btOffLeaf) != 0 }

func (b *BTree) newNode(c *Ctx, leaf bool) uint64 {
	n := c.Alloc(btNodeLen)
	if leaf {
		c.StoreU64(n+btOffLeaf, 1)
	} else {
		c.StoreU64(n+btOffLeaf, 0)
	}
	c.StoreU64(n+btOffN, 0)
	return n
}

// Setup implements Benchmark.
func (b *BTree) Setup(c *Ctx, cfg Config) {
	b.vbytes = cfg.ValueBytes
	b.keyspace = uint64(cfg.InitialItems) * 2
	b.rootCell = c.Alloc(8)
	b.cntCell = c.Alloc(8)
	c.StoreU64(b.rootCell, b.newNode(c, true))
	for i := 0; i < cfg.InitialItems; i++ {
		b.insert(c, c.Rng.Uint64()%b.keyspace, uint64(i))
	}
}

// splitChild splits the full i-th child of x (CLRS B-TREE-SPLIT-CHILD).
func (b *BTree) splitChild(c *Ctx, x uint64, i int) {
	y := b.kid(c, x, i)
	z := b.newNode(c, b.isLeaf(c, y))
	t := btDegree
	b.setCount(c, z, t-1)
	for j := 0; j < t-1; j++ {
		b.setKey(c, z, j, b.key(c, y, j+t))
		b.setVal(c, z, j, b.val(c, y, j+t))
	}
	if !b.isLeaf(c, y) {
		for j := 0; j < t; j++ {
			b.setKid(c, z, j, b.kid(c, y, j+t))
		}
	}
	b.setCount(c, y, t-1)
	for j := b.count(c, x); j >= i+1; j-- {
		b.setKid(c, x, j+1, b.kid(c, x, j))
	}
	b.setKid(c, x, i+1, z)
	for j := b.count(c, x) - 1; j >= i; j-- {
		b.setKey(c, x, j+1, b.key(c, x, j))
		b.setVal(c, x, j+1, b.val(c, x, j))
	}
	b.setKey(c, x, i, b.key(c, y, t-1))
	b.setVal(c, x, i, b.val(c, y, t-1))
	b.setCount(c, x, b.count(c, x)+1)
}

// insert adds or updates key with a fresh value allocation.
func (b *BTree) insert(c *Ctx, key, tag uint64) {
	root := c.LoadU64(b.rootCell)
	if b.count(c, root) == btMaxKeys {
		s := b.newNode(c, false)
		b.setKid(c, s, 0, root)
		b.splitChild(c, s, 0)
		c.StoreU64(b.rootCell, s)
		root = s
	}
	b.insertNonFull(c, root, key, tag)
}

func (b *BTree) insertNonFull(c *Ctx, x uint64, key, tag uint64) {
	for {
		n := b.count(c, x)
		// Update in place if the key exists in this node.
		for i := 0; i < n; i++ {
			if b.key(c, x, i) == key {
				c.FillValue(b.val(c, x, i), b.vbytes, tag)
				return
			}
		}
		if b.isLeaf(c, x) {
			i := n - 1
			for i >= 0 && key < b.key(c, x, i) {
				b.setKey(c, x, i+1, b.key(c, x, i))
				b.setVal(c, x, i+1, b.val(c, x, i))
				i--
			}
			v := c.Alloc(b.vbytes)
			c.FillValue(v, b.vbytes, tag)
			b.setKey(c, x, i+1, key)
			b.setVal(c, x, i+1, v)
			b.setCount(c, x, n+1)
			c.StoreU64(b.cntCell, c.LoadU64(b.cntCell)+1)
			return
		}
		i := 0
		for i < n && key > b.key(c, x, i) {
			i++
		}
		if i < n && b.key(c, x, i) == key {
			c.FillValue(b.val(c, x, i), b.vbytes, tag)
			return
		}
		child := b.kid(c, x, i)
		if b.count(c, child) == btMaxKeys {
			b.splitChild(c, x, i)
			k := b.key(c, x, i)
			if key == k {
				c.FillValue(b.val(c, x, i), b.vbytes, tag)
				return
			}
			if key > k {
				i++
			}
			child = b.kid(c, x, i)
		}
		x = child
	}
}

// Op implements Benchmark: one insert-or-update in an atomic region under
// the tree lock.
func (b *BTree) Op(c *Ctx, i int) {
	key := c.Key(b.keyspace)
	b.mu.Lock(c.T)
	c.Begin()
	b.insert(c, key, uint64(i))
	c.End()
	b.mu.Unlock(c.T)
}

// Check implements Benchmark: key count, ordering and node-fill invariants.
func (b *BTree) Check(read func(uint64) uint64) string {
	key := func(n uint64, i int) uint64 { return read(n + btOffKeys + 8*uint64(i)) }
	total := 0
	var walk func(n uint64, lo, hi uint64, root bool) string
	walk = func(n uint64, lo, hi uint64, root bool) string {
		cnt := int(read(n + btOffN))
		if !root && cnt < btDegree-1 {
			return fmt.Sprintf("BT: underfull node (%d keys)", cnt)
		}
		if cnt > btMaxKeys {
			return fmt.Sprintf("BT: overfull node (%d keys)", cnt)
		}
		total += cnt
		prev := lo
		for i := 0; i < cnt; i++ {
			k := key(n, i)
			if k < prev || k >= hi {
				return fmt.Sprintf("BT: key %d violates order in [%d,%d)", k, lo, hi)
			}
			prev = k + 1
		}
		if read(n+btOffLeaf) != 0 {
			return ""
		}
		lows := lo
		for i := 0; i <= cnt; i++ {
			high := hi
			if i < cnt {
				high = key(n, i)
			}
			if msg := walk(read(n+btOffKids+8*uint64(i)), lows, high, false); msg != "" {
				return msg
			}
			if i < cnt {
				lows = key(n, i) + 1
			}
		}
		return ""
	}
	if msg := walk(read(b.rootCell), 0, ^uint64(0), true); msg != "" {
		return msg
	}
	if got := read(b.cntCell); got != uint64(total) {
		return fmt.Sprintf("BT: count cell %d != keys %d", got, total)
	}
	return ""
}
