package workload

import (
	"fmt"

	"asap/internal/sim"
)

// RBTree (RB) inserts and updates entries in a red-black tree with full
// CLRS insert fixup: recolorings and rotations ripple through several
// nodes per insert, producing the multi-line atomic regions that make RB
// a staple of persistent-memory benchmarking. Node layout:
//
//	key(8) | left(8) | right(8) | parent(8) | color(8) | value[ValueBytes]
type RBTree struct {
	mu       sim.Mutex
	rootCell uint64
	cntCell  uint64
	vbytes   int
	keyspace uint64
}

// NewRBTree returns an empty RB benchmark.
func NewRBTree() *RBTree { return &RBTree{} }

// Name implements Benchmark.
func (r *RBTree) Name() string { return "RB" }

const (
	rbOffKey    = 0
	rbOffLeft   = 8
	rbOffRight  = 16
	rbOffParent = 24
	rbOffColor  = 32
	rbNodeHdr   = 40

	rbRed   = 1
	rbBlack = 0
)

func (r *RBTree) left(c *Ctx, n uint64) uint64   { return c.LoadU64(n + rbOffLeft) }
func (r *RBTree) right(c *Ctx, n uint64) uint64  { return c.LoadU64(n + rbOffRight) }
func (r *RBTree) parent(c *Ctx, n uint64) uint64 { return c.LoadU64(n + rbOffParent) }
func (r *RBTree) color(c *Ctx, n uint64) uint64 {
	if n == 0 {
		return rbBlack // nil leaves are black
	}
	return c.LoadU64(n + rbOffColor)
}
func (r *RBTree) setLeft(c *Ctx, n, v uint64)   { c.StoreU64(n+rbOffLeft, v) }
func (r *RBTree) setRight(c *Ctx, n, v uint64)  { c.StoreU64(n+rbOffRight, v) }
func (r *RBTree) setParent(c *Ctx, n, v uint64) { c.StoreU64(n+rbOffParent, v) }
func (r *RBTree) setColor(c *Ctx, n, v uint64) {
	if n != 0 {
		c.StoreU64(n+rbOffColor, v)
	}
}

// Setup implements Benchmark.
func (r *RBTree) Setup(c *Ctx, cfg Config) {
	r.vbytes = cfg.ValueBytes
	r.keyspace = uint64(cfg.InitialItems) * 2
	r.rootCell = c.Alloc(8)
	r.cntCell = c.Alloc(8)
	for i := 0; i < cfg.InitialItems; i++ {
		r.insert(c, c.Rng.Uint64()%r.keyspace, uint64(i))
	}
}

func (r *RBTree) rotateLeft(c *Ctx, x uint64) {
	y := r.right(c, x)
	yl := r.left(c, y)
	r.setRight(c, x, yl)
	if yl != 0 {
		r.setParent(c, yl, x)
	}
	p := r.parent(c, x)
	r.setParent(c, y, p)
	switch {
	case p == 0:
		c.StoreU64(r.rootCell, y)
	case r.left(c, p) == x:
		r.setLeft(c, p, y)
	default:
		r.setRight(c, p, y)
	}
	r.setLeft(c, y, x)
	r.setParent(c, x, y)
}

func (r *RBTree) rotateRight(c *Ctx, x uint64) {
	y := r.left(c, x)
	yr := r.right(c, y)
	r.setLeft(c, x, yr)
	if yr != 0 {
		r.setParent(c, yr, x)
	}
	p := r.parent(c, x)
	r.setParent(c, y, p)
	switch {
	case p == 0:
		c.StoreU64(r.rootCell, y)
	case r.right(c, p) == x:
		r.setRight(c, p, y)
	default:
		r.setLeft(c, p, y)
	}
	r.setRight(c, y, x)
	r.setParent(c, x, y)
}

// insert adds or updates key (CLRS RB-INSERT).
func (r *RBTree) insert(c *Ctx, key, tag uint64) {
	var parent uint64
	cur := c.LoadU64(r.rootCell)
	for cur != 0 {
		k := c.LoadU64(cur + rbOffKey)
		if k == key {
			c.FillValue(cur+rbNodeHdr, r.vbytes, tag)
			return
		}
		parent = cur
		if key < k {
			cur = r.left(c, cur)
		} else {
			cur = r.right(c, cur)
		}
	}
	z := c.Alloc(rbNodeHdr + r.vbytes)
	c.StoreU64(z+rbOffKey, key)
	r.setLeft(c, z, 0)
	r.setRight(c, z, 0)
	r.setParent(c, z, parent)
	r.setColor(c, z, rbRed)
	c.FillValue(z+rbNodeHdr, r.vbytes, tag)
	switch {
	case parent == 0:
		c.StoreU64(r.rootCell, z)
	case key < c.LoadU64(parent+rbOffKey):
		r.setLeft(c, parent, z)
	default:
		r.setRight(c, parent, z)
	}
	c.StoreU64(r.cntCell, c.LoadU64(r.cntCell)+1)
	r.fixup(c, z)
}

// fixup restores the red-black invariants after inserting z (CLRS
// RB-INSERT-FIXUP).
func (r *RBTree) fixup(c *Ctx, z uint64) {
	for {
		p := r.parent(c, z)
		if p == 0 || r.color(c, p) != rbRed {
			break
		}
		g := r.parent(c, p)
		if r.left(c, g) == p {
			u := r.right(c, g)
			if r.color(c, u) == rbRed {
				r.setColor(c, p, rbBlack)
				r.setColor(c, u, rbBlack)
				r.setColor(c, g, rbRed)
				z = g
				continue
			}
			if r.right(c, p) == z {
				z = p
				r.rotateLeft(c, z)
				p = r.parent(c, z)
				g = r.parent(c, p)
			}
			r.setColor(c, p, rbBlack)
			r.setColor(c, g, rbRed)
			r.rotateRight(c, g)
		} else {
			u := r.left(c, g)
			if r.color(c, u) == rbRed {
				r.setColor(c, p, rbBlack)
				r.setColor(c, u, rbBlack)
				r.setColor(c, g, rbRed)
				z = g
				continue
			}
			if r.left(c, p) == z {
				z = p
				r.rotateRight(c, z)
				p = r.parent(c, z)
				g = r.parent(c, p)
			}
			r.setColor(c, p, rbBlack)
			r.setColor(c, g, rbRed)
			r.rotateLeft(c, g)
		}
	}
	r.setColor(c, c.LoadU64(r.rootCell), rbBlack)
}

// Op implements Benchmark: one insert-or-update in an atomic region under
// the tree lock.
func (r *RBTree) Op(c *Ctx, i int) {
	key := c.Key(r.keyspace)
	r.mu.Lock(c.T)
	c.Begin()
	r.insert(c, key, uint64(i))
	c.End()
	r.mu.Unlock(c.T)
}

// Check implements Benchmark: BST order, no red node with a red child,
// equal black height on every path, parent pointers consistent, count
// matches.
func (r *RBTree) Check(read func(uint64) uint64) string {
	color := func(n uint64) uint64 {
		if n == 0 {
			return rbBlack // nil leaves are black; no load
		}
		return read(n + rbOffColor)
	}
	count := 0
	var walk func(n, parent uint64, lo, hi uint64) (int, string)
	walk = func(n, parent uint64, lo, hi uint64) (int, string) {
		if n == 0 {
			return 1, ""
		}
		count++
		if got := read(n + rbOffParent); got != parent {
			return 0, fmt.Sprintf("RB: parent pointer %#x != %#x", got, parent)
		}
		k := read(n + rbOffKey)
		if k < lo || k >= hi {
			return 0, fmt.Sprintf("RB: key %d out of [%d,%d)", k, lo, hi)
		}
		if color(n) == rbRed {
			if color(read(n+rbOffLeft)) == rbRed || color(read(n+rbOffRight)) == rbRed {
				return 0, fmt.Sprintf("RB: red node %d has red child", k)
			}
		}
		lb, msg := walk(read(n+rbOffLeft), n, lo, k)
		if msg != "" {
			return 0, msg
		}
		rb, msg := walk(read(n+rbOffRight), n, k+1, hi)
		if msg != "" {
			return 0, msg
		}
		if lb != rb {
			return 0, fmt.Sprintf("RB: black height mismatch at key %d (%d vs %d)", k, lb, rb)
		}
		if color(n) == rbBlack {
			lb++
		}
		return lb, ""
	}
	root := read(r.rootCell)
	if root != 0 && color(root) != rbBlack {
		return "RB: red root"
	}
	if _, msg := walk(root, 0, 0, ^uint64(0)); msg != "" {
		return msg
	}
	if got := read(r.cntCell); got != uint64(count) {
		return fmt.Sprintf("RB: count cell %d != nodes %d", got, count)
	}
	return ""
}
