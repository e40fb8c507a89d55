package workload

import (
	"fmt"
	"math/bits"

	"asap/internal/sim"
)

// CTree (CT) inserts and updates entries in a crit-bit tree (a PATRICIA
// trie over 64-bit keys), following the c-tree workload of the WHISPER
// suite. Pointers are tagged: the low bit distinguishes leaves from
// internal nodes (all allocations are line-aligned, so low bits are free).
//
//	internal: bit(8) | left(8) | right(8)
//	leaf:     key(8) | valptr(8)
type CTree struct {
	mu       sim.Mutex
	rootCell uint64
	cntCell  uint64
	vbytes   int
	keyspace uint64
}

// NewCTree returns an empty CT benchmark.
func NewCTree() *CTree { return &CTree{} }

// Name implements Benchmark.
func (ct *CTree) Name() string { return "CT" }

const ctLeafTag = 1

func ctIsLeaf(p uint64) bool { return p&ctLeafTag != 0 }
func ctAddr(p uint64) uint64 { return p &^ ctLeafTag }

func (ct *CTree) newLeaf(c *Ctx, key, tag uint64) uint64 {
	l := c.Alloc(16)
	v := c.Alloc(ct.vbytes)
	c.FillValue(v, ct.vbytes, tag)
	c.StoreU64(l, key)
	c.StoreU64(l+8, v)
	return l | ctLeafTag
}

// Setup implements Benchmark.
func (ct *CTree) Setup(c *Ctx, cfg Config) {
	ct.vbytes = cfg.ValueBytes
	ct.keyspace = uint64(cfg.InitialItems) * 2
	ct.rootCell = c.Alloc(8)
	ct.cntCell = c.Alloc(8)
	for i := 0; i < cfg.InitialItems; i++ {
		ct.insert(c, c.Rng.Uint64()%ct.keyspace, uint64(i))
	}
}

// dirOf returns which side key falls on for a node testing bit.
func dirOf(key uint64, bit uint) int {
	if key&(1<<bit) != 0 {
		return 1
	}
	return 0
}

// insert adds or updates key.
func (ct *CTree) insert(c *Ctx, key, tag uint64) {
	root := c.LoadU64(ct.rootCell)
	if root == 0 {
		c.StoreU64(ct.rootCell, ct.newLeaf(c, key, tag))
		c.StoreU64(ct.cntCell, c.LoadU64(ct.cntCell)+1)
		return
	}
	// Walk to the closest leaf.
	p := root
	for !ctIsLeaf(p) {
		bit := uint(c.LoadU64(ctAddr(p)))
		p = c.LoadU64(ctAddr(p) + 8 + 8*uint64(dirOf(key, bit)))
	}
	leafKey := c.LoadU64(ctAddr(p))
	if leafKey == key {
		c.FillValue(c.LoadU64(ctAddr(p)+8), ct.vbytes, tag)
		return
	}
	// First differing bit decides where the new internal node goes.
	critBit := uint(63 - bits.LeadingZeros64(leafKey^key))

	n := c.Alloc(24)
	c.StoreU64(n, uint64(critBit))
	newLeaf := ct.newLeaf(c, key, tag)

	// Descend again, stopping where the crit bit outranks the node bit.
	cellAddr := ct.rootCell
	p = c.LoadU64(cellAddr)
	for !ctIsLeaf(p) {
		bit := uint(c.LoadU64(ctAddr(p)))
		if bit < critBit {
			break
		}
		cellAddr = ctAddr(p) + 8 + 8*uint64(dirOf(key, bit))
		p = c.LoadU64(cellAddr)
	}
	c.StoreU64(n+8+8*uint64(dirOf(key, critBit)), newLeaf)
	c.StoreU64(n+8+8*uint64(1-dirOf(key, critBit)), p)
	c.StoreU64(cellAddr, n)
	c.StoreU64(ct.cntCell, c.LoadU64(ct.cntCell)+1)
}

// Op implements Benchmark: one insert-or-update in an atomic region under
// the tree lock.
func (ct *CTree) Op(c *Ctx, i int) {
	key := c.Key(ct.keyspace)
	ct.mu.Lock(c.T)
	c.Begin()
	ct.insert(c, key, uint64(i))
	c.End()
	ct.mu.Unlock(c.T)
}

// Check implements Benchmark: leaf count matches the counter, keys are
// unique, and every node's bit outranks its children's bits.
func (ct *CTree) Check(read func(uint64) uint64) string {
	count := 0
	seen := map[uint64]bool{}
	var walk func(p uint64, parentBit int) string
	walk = func(p uint64, parentBit int) string {
		if p == 0 {
			return ""
		}
		if ctIsLeaf(p) {
			key := read(ctAddr(p))
			if seen[key] {
				return fmt.Sprintf("CT: duplicate key %d", key)
			}
			seen[key] = true
			count++
			return ""
		}
		bit := int(read(ctAddr(p)))
		if parentBit >= 0 && bit >= parentBit {
			return fmt.Sprintf("CT: child bit %d >= parent bit %d", bit, parentBit)
		}
		if msg := walk(read(ctAddr(p)+8), bit); msg != "" {
			return msg
		}
		return walk(read(ctAddr(p)+16), bit)
	}
	if msg := walk(read(ct.rootCell), -1); msg != "" {
		return msg
	}
	if got := read(ct.cntCell); got != uint64(count) {
		return fmt.Sprintf("CT: count cell %d != leaves %d", got, count)
	}
	return ""
}
