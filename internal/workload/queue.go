package workload

import (
	"fmt"

	"asap/internal/sim"
)

// Queue (Q) enqueues and dequeues nodes of a persistent FIFO linked list.
// The head and tail pointers sit on separate lines and are touched by
// every operation, so consecutive atomic regions — across all threads —
// are data dependent on each other through them: the benchmark the paper
// singles out for the highest cross-region dependence rate (§7.2).
// Node layout:
//
//	next(8) | value[ValueBytes]
type Queue struct {
	mu       sim.Mutex
	headCell uint64
	tailCell uint64
	cntCell  uint64
	enqCell  uint64
	deqCell  uint64
	vbytes   int
}

// NewQueue returns an empty Q benchmark.
func NewQueue() *Queue { return &Queue{} }

// Name implements Benchmark.
func (q *Queue) Name() string { return "Q" }

const qNodeHdr = 8

// Setup implements Benchmark.
func (q *Queue) Setup(c *Ctx, cfg Config) {
	q.vbytes = cfg.ValueBytes
	q.headCell = c.Alloc(64)
	q.tailCell = c.Alloc(64)
	q.cntCell = c.Alloc(64)
	q.enqCell = c.Alloc(64)
	q.deqCell = c.Alloc(64)
	for i := 0; i < cfg.InitialItems; i++ {
		q.enqueue(c, uint64(i))
	}
}

func (q *Queue) enqueue(c *Ctx, tag uint64) {
	n := c.Alloc(qNodeHdr + q.vbytes)
	c.StoreU64(n, 0)
	c.FillValue(n+qNodeHdr, q.vbytes, tag)
	tail := c.LoadU64(q.tailCell)
	if tail == 0 {
		c.StoreU64(q.headCell, n)
	} else {
		c.StoreU64(tail, n)
	}
	c.StoreU64(q.tailCell, n)
	c.StoreU64(q.cntCell, c.LoadU64(q.cntCell)+1)
	c.StoreU64(q.enqCell, c.LoadU64(q.enqCell)+1)
}

func (q *Queue) dequeue(c *Ctx) bool {
	head := c.LoadU64(q.headCell)
	if head == 0 {
		return false
	}
	next := c.LoadU64(head)
	c.StoreU64(q.headCell, next)
	if next == 0 {
		c.StoreU64(q.tailCell, 0)
	}
	c.StoreU64(q.cntCell, c.LoadU64(q.cntCell)-1)
	c.StoreU64(q.deqCell, c.LoadU64(q.deqCell)+1)
	c.Free(head)
	return true
}

// Op implements Benchmark: alternating enqueue/dequeue pressure.
func (q *Queue) Op(c *Ctx, i int) {
	q.mu.Lock(c.T)
	c.Begin()
	if c.Rng.Intn(2) == 0 {
		q.enqueue(c, uint64(i))
	} else if !q.dequeue(c) {
		q.enqueue(c, uint64(i))
	}
	c.End()
	q.mu.Unlock(c.T)
}

// Check implements Benchmark: the chain length matches the counter and
// the enqueue/dequeue totals reconcile.
func (q *Queue) Check(read func(uint64) uint64) string {
	n := uint64(0)
	last := uint64(0)
	for cur := read(q.headCell); cur != 0; cur = read(cur) {
		last = cur
		n++
		if n > 1<<24 {
			return "Q: cycle in list"
		}
	}
	if got := read(q.cntCell); got != n {
		return fmt.Sprintf("Q: count cell %d != chain length %d", got, n)
	}
	if tail := read(q.tailCell); tail != last {
		return fmt.Sprintf("Q: tail cell %#x != last node %#x", tail, last)
	}
	enq, deq := read(q.enqCell), read(q.deqCell)
	if enq-deq != n {
		return fmt.Sprintf("Q: enq %d - deq %d != length %d", enq, deq, n)
	}
	return ""
}
