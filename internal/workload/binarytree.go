package workload

import (
	"fmt"

	"asap/internal/sim"
)

// BinaryTree (BN) inserts and updates entries in an unbalanced binary
// search tree kept in persistent memory. Node layout:
//
//	key(8) | left(8) | right(8) | value[ValueBytes]
type BinaryTree struct {
	mu       sim.Mutex
	rootCell uint64 // persistent cell: root pointer
	cntCell  uint64 // persistent cell: node count
	vbytes   int
	keyspace uint64
}

// NewBinaryTree returns an empty BN benchmark.
func NewBinaryTree() *BinaryTree { return &BinaryTree{} }

// Name implements Benchmark.
func (b *BinaryTree) Name() string { return "BN" }

const btNodeHdr = 24

func (b *BinaryTree) newNode(c *Ctx, key, tag uint64) uint64 {
	n := c.Alloc(btNodeHdr + b.vbytes)
	c.StoreU64(n, key)
	c.StoreU64(n+8, 0)
	c.StoreU64(n+16, 0)
	c.FillValue(n+btNodeHdr, b.vbytes, tag)
	return n
}

// Setup implements Benchmark.
func (b *BinaryTree) Setup(c *Ctx, cfg Config) {
	b.vbytes = cfg.ValueBytes
	b.keyspace = uint64(cfg.InitialItems) * 2
	b.rootCell = c.Alloc(8)
	b.cntCell = c.Alloc(8)
	for i := 0; i < cfg.InitialItems; i++ {
		b.insert(c, c.Rng.Uint64()%b.keyspace, uint64(i))
	}
}

// insert adds or updates key; returns true when a new node was created.
func (b *BinaryTree) insert(c *Ctx, key, tag uint64) bool {
	cur := c.LoadU64(b.rootCell)
	if cur == 0 {
		n := b.newNode(c, key, tag)
		c.StoreU64(b.rootCell, n)
		c.StoreU64(b.cntCell, c.LoadU64(b.cntCell)+1)
		return true
	}
	for {
		k := c.LoadU64(cur)
		switch {
		case key == k:
			c.FillValue(cur+btNodeHdr, b.vbytes, tag)
			return false
		case key < k:
			next := c.LoadU64(cur + 8)
			if next == 0 {
				n := b.newNode(c, key, tag)
				c.StoreU64(cur+8, n)
				c.StoreU64(b.cntCell, c.LoadU64(b.cntCell)+1)
				return true
			}
			cur = next
		default:
			next := c.LoadU64(cur + 16)
			if next == 0 {
				n := b.newNode(c, key, tag)
				c.StoreU64(cur+16, n)
				c.StoreU64(b.cntCell, c.LoadU64(b.cntCell)+1)
				return true
			}
			cur = next
		}
	}
}

// Op implements Benchmark: one insert-or-update in an atomic region under
// the tree lock.
func (b *BinaryTree) Op(c *Ctx, i int) {
	key := c.Key(b.keyspace)
	b.mu.Lock(c.T)
	c.Begin()
	b.insert(c, key, uint64(i))
	c.End()
	b.mu.Unlock(c.T)
}

// Check implements Benchmark: the counted size must equal the number of
// reachable nodes and the BST order must hold.
func (b *BinaryTree) Check(read func(uint64) uint64) string {
	count := 0
	var walk func(n uint64, lo, hi uint64) string
	walk = func(n uint64, lo, hi uint64) string {
		if n == 0 {
			return ""
		}
		count++
		k := read(n)
		if k < lo || k >= hi {
			return fmt.Sprintf("BN: key %d out of range [%d,%d)", k, lo, hi)
		}
		if msg := walk(read(n+8), lo, k); msg != "" {
			return msg
		}
		return walk(read(n+16), k+1, hi)
	}
	if msg := walk(read(b.rootCell), 0, ^uint64(0)); msg != "" {
		return msg
	}
	if got := read(b.cntCell); got != uint64(count) {
		return fmt.Sprintf("BN: count cell %d != reachable nodes %d", got, count)
	}
	return ""
}
