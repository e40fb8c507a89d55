package sim

// Mutex is a lock between simulated threads. Workloads use it to provide
// the isolation that the paper's atomic regions do not (§2.1): conflicting
// atomic regions are nested inside critical sections guarded by locks.
//
// Acquisition models a cache-resident atomic operation: a fixed cost is
// charged on every acquire, and contended acquires additionally wait in
// simulated time until the holder releases.
type Mutex struct {
	holder *Thread
	// AcquireCost is charged on every Lock; defaults to 4 cycles
	// (an L1-hit compare-and-swap) when zero.
	AcquireCost uint64
	// freePred is the reusable contended-wait predicate, created on the
	// first contended Lock so waits allocate no per-call closure.
	freePred func() bool
}

func (m *Mutex) cost() uint64 {
	if m.AcquireCost == 0 {
		return 4
	}
	return m.AcquireCost
}

// Lock blocks t until the mutex is free, then takes it. A contended wait
// is reported to the kernel's observer as lock time.
func (m *Mutex) Lock(t *Thread) {
	if m.holder != nil {
		if m.freePred == nil {
			m.freePred = func() bool { return m.holder == nil }
		}
		if o := t.k.obs; o != nil {
			o.LockBegin(t)
			t.WaitUntil(m.freePred)
			o.LockEnd(t)
		} else {
			t.WaitUntil(m.freePred)
		}
	}
	m.holder = t
	t.Advance(m.cost())
}

// Unlock releases the mutex. It panics if t is not the holder, which in a
// simulation always indicates a workload bug worth crashing on.
func (m *Mutex) Unlock(t *Thread) {
	if m.holder != t {
		panic("sim: Unlock by non-holder " + t.name)
	}
	m.holder = nil
	t.Advance(m.cost())
}
