package memdev

import (
	"asap/internal/arch"
	"asap/internal/sim"
	"asap/internal/stats"
)

// Channel is one memory channel: a WPQ (persistence domain), an arrival
// queue for operations waiting on a free WPQ slot, a drain engine writing
// accepted entries to the PM device, and the channel's slice of the LH-WPQ.
type Channel struct {
	id  int
	cfg *Config
	k   *sim.Kernel
	st  *stats.Set
	pm  *Image

	queue         entryRing // accepted, in FIFO drain order (droppable)
	inflight      *Entry    // entry whose device write has issued
	pickupPending bool      // a scheduled issue awaits its IssueDelay
	arrivals      []arrival
	pool          *entryPool // fabric-wide recycler for drained/dropped entries

	lh *LHWPQ
	fi FaultInjector // consulted at ADR flush; nil = ideal ADR

	// cells are the set's pre-resolved hot counters and histograms:
	// accept/drain/drop fire per persist operation.
	cells *stats.Cells

	// pickupFn and finishFn are the drain engine's event callbacks,
	// created once per channel: persists are the event hot loop, and
	// per-op closures would otherwise dominate steady-state allocation.
	// A single cached finishFn is sound because at most one device
	// write is in flight per channel.
	pickupFn func()
	finishFn func()
}

// entryRing is the WPQ's FIFO of accepted entries: a ring of WPQEntries
// slots, so accepting and issuing allocate nothing.
type entryRing struct {
	buf     []*Entry
	head, n int
}

// index returns the slot of the i-th entry from the head.
func (r *entryRing) index(i int) int {
	i += r.head
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	return i
}

// at returns the i-th entry from the head.
func (r *entryRing) at(i int) *Entry { return r.buf[r.index(i)] }

func (r *entryRing) push(e *Entry) {
	if r.n == len(r.buf) {
		panic("memdev: WPQ accepted beyond its capacity")
	}
	r.buf[r.index(r.n)] = e
	r.n++
}

func (r *entryRing) pop() {
	r.buf[r.head] = nil
	r.head = r.index(1)
	r.n--
}

// filter keeps the entries for which keep returns true, in order.
func (r *entryRing) filter(keep func(*Entry) bool) {
	w := 0
	for i := 0; i < r.n; i++ {
		if e := r.at(i); keep(e) {
			r.buf[r.index(w)] = e
			w++
		}
	}
	for i := w; i < r.n; i++ {
		r.buf[r.index(i)] = nil
	}
	r.n = w
}

type arrival struct {
	e        *Entry
	onAccept func(at uint64)
}

func newChannel(id int, cfg *Config, k *sim.Kernel, st *stats.Set, pm *Image, pool *entryPool) *Channel {
	c := &Channel{
		id:   id,
		cfg:  cfg,
		k:    k,
		st:   st,
		pm:   pm,
		pool: pool,
		lh:   newLHWPQ(cfg.LHWPQEntries),
	}
	c.queue.buf = make([]*Entry, max(cfg.WPQEntries, 0))
	c.cells = st.Cells()
	c.pickupFn = func() {
		c.pickupPending = false
		c.startDrain()
	}
	c.finishFn = c.finishDrain
	return c
}

// ID returns the channel index within the fabric.
func (c *Channel) ID() int { return c.id }

// LH returns this channel's LH-WPQ.
func (c *Channel) LH() *LHWPQ { return c.lh }

// Occupancy returns the number of WPQ slots in use (queued plus in flight).
func (c *Channel) Occupancy() int {
	n := c.queue.n
	if c.inflight != nil {
		n++
	}
	return n
}

// HasSpace reports whether the WPQ can accept another entry right now.
func (c *Channel) HasSpace() bool { return c.Occupancy() < c.cfg.WPQEntries }

// Waiters returns the number of arrivals stalled waiting for a WPQ slot.
func (c *Channel) Waiters() int { return len(c.arrivals) }

// Arrive presents e to the channel at the current kernel time. If a WPQ
// slot is free the entry is accepted immediately (the persist operation is
// then complete per §4.1) and onAccept fires; otherwise the entry waits in
// the arrival queue and is accepted FIFO as drains free slots. onAccept may
// be nil.
func (c *Channel) Arrive(e *Entry, onAccept func(at uint64)) {
	if len(c.arrivals) == 0 && c.HasSpace() {
		c.accept(e, onAccept)
		return
	}
	*c.cells.WPQStalls++
	c.arrivals = append(c.arrivals, arrival{e: e, onAccept: onAccept})
}

func (c *Channel) accept(e *Entry, onAccept func(at uint64)) {
	e.acceptedAt = c.k.Now()
	c.queue.push(e)
	c.cells.WPQDepth.Observe(uint64(c.Occupancy()))
	c.cells.LHWPQDepth.Observe(uint64(c.lh.Len()))
	if onAccept != nil {
		onAccept(c.k.Now())
	}
	c.startDrain()
}

// startDrain schedules the head entry's device write if the device is
// idle. The write command issues no earlier than IssueDelayCycles after
// acceptance; until then the entry stays droppable in the queue.
func (c *Channel) startDrain() {
	if c.inflight != nil || c.pickupPending || c.queue.n == 0 {
		return
	}
	e := c.queue.at(0)
	ready := e.acceptedAt + c.cfg.IssueDelayCycles
	if now := c.k.Now(); ready <= now {
		c.issue(e)
		return
	}
	c.pickupPending = true
	c.k.Schedule(ready, c.pickupFn)
}

// issue commits the head entry to the device (no longer droppable).
func (c *Channel) issue(e *Entry) {
	if c.queue.n == 0 || c.queue.at(0) != e {
		// The entry was dropped (removed) while awaiting issue; pick the
		// new head instead.
		c.startDrain()
		return
	}
	c.queue.pop()
	e.draining = true
	c.inflight = e
	c.k.ScheduleAfter(c.cfg.PMWrite(), c.finishFn)
}

// finishDrain completes the in-flight device write. The entry is read
// from c.inflight (there is at most one) so the scheduled callback needs
// no per-op capture.
func (c *Channel) finishDrain() {
	e := c.inflight
	c.pm.Write(e.Dst, e.Payload)
	*c.cells.PMWrites++
	c.inflight = nil
	c.pool.put(e) // the image holds the bytes now; the entry recycles
	c.admitWaiters()
	c.startDrain()
}

// admitWaiters moves arrivals into freed WPQ slots, FIFO.
func (c *Channel) admitWaiters() {
	for len(c.arrivals) > 0 && c.HasSpace() {
		a := c.arrivals[0]
		c.arrivals[0] = arrival{}
		c.arrivals = c.arrivals[1:]
		c.accept(a.e, a.onAccept)
	}
}

// DropRegionOps removes every still-queued LPO and log-header write
// belonging to region r (LPO dropping, §5.1: a committed region's log will
// never be read, so its pending log writes need not reach PM). Returns the
// number of entries dropped.
func (c *Channel) DropRegionOps(r arch.RID) int {
	return c.dropWhere(func(e *Entry) bool {
		return e.RID == r && (e.Kind == KindLPO || e.Kind == KindLogHeader)
	}, c.cells.LPOsDropped)
}

// DropDPOFor removes one still-queued DPO targeting line (DPO dropping,
// §5.1: a later region's LPO for the line carries the same bytes). Reports
// whether a DPO was found and dropped.
func (c *Channel) DropDPOFor(line arch.LineAddr) bool {
	n := c.dropWhere(func(e *Entry) bool {
		return e.Kind == KindDPO && e.Dst == line && !e.dropped
	}, c.cells.DPOsDropped)
	return n > 0
}

// SupersedeDPO removes any still-queued DPO to line that is about to be
// replaced by a newer write of the same line (used by the redo-logging
// baseline, which filters stale DPOs on commit). Returns dropped count.
func (c *Channel) SupersedeDPO(line arch.LineAddr) int {
	return c.dropWhere(func(e *Entry) bool {
		return e.Kind == KindDPO && e.Dst == line
	}, c.cells.DPOsDropped)
}

// dropWhere removes matching queue-resident entries: the §5.1 dropping
// window. Entries whose device write has issued (inflight) are no longer
// droppable.
func (c *Channel) dropWhere(match func(*Entry) bool, counter *int64) int {
	dropped := 0
	c.queue.filter(func(e *Entry) bool {
		if !match(e) {
			return true
		}
		e.dropped = true
		dropped++
		*counter++
		c.pool.put(e) // never reaches the device; recycle now
		return false
	})
	if dropped > 0 {
		c.admitWaiters()
	}
	return dropped
}

// FlushToImage models ADR on power failure: every accepted entry (queued or
// in flight) is written to the PM image. Arrival-queue entries were never
// accepted by the WPQ, so they are lost — exactly the §4.1 completion rule.
// An installed FaultInjector may reorder, tear, or drop the flushed writes.
func (c *Channel) FlushToImage() {
	entries := c.QueuedEntries()
	if c.fi == nil {
		for _, e := range entries {
			c.pm.Write(e.Dst, e.Payload)
		}
		return
	}
	order := c.fi.FlushOrder(c.id, entries)
	if order == nil {
		order = make([]int, len(entries))
		for i := range order {
			order[i] = i
		}
	}
	for _, i := range order {
		e := entries[i]
		if payload, persist := c.fi.FlushPayload(c.id, e, c.pm.Read(e.Dst)); persist {
			c.pm.Write(e.Dst, payload)
		}
	}
}

// QueuedEntries returns the accepted-but-undrained entries, head first, for
// tests and debugging.
func (c *Channel) QueuedEntries() []*Entry {
	out := make([]*Entry, 0, c.queue.n+1)
	if c.inflight != nil {
		out = append(out, c.inflight)
	}
	for i := 0; i < c.queue.n; i++ {
		out = append(out, c.queue.at(i))
	}
	return out
}
