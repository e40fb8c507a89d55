package sim

type threadState uint8

const (
	stateRunnable threadState = iota
	stateBlocked
	stateDone
)

// Thread is a simulated hardware thread with its own virtual clock. All
// methods must be called from within the thread's own function; the kernel
// guarantees that only one thread executes at any instant, so code between
// yields observes and mutates shared state atomically in simulated time.
type Thread struct {
	k      *Kernel
	id     int
	name   string
	now    uint64
	state  threadState
	pred   func() bool
	resume chan struct{}
}

// ID returns the thread's spawn index, used by hardware as the ThreadID part
// of region IDs.
func (t *Thread) ID() int { return t.id }

// Name returns the name given at Spawn.
func (t *Thread) Name() string { return t.name }

// Now returns the thread's virtual clock in cycles.
func (t *Thread) Now() uint64 { return t.now }

// Kernel returns the kernel this thread runs on.
func (t *Thread) Kernel() *Kernel { return t.k }

// Advance moves the thread's clock forward by cycles and yields to the
// kernel so other threads and events at earlier times can run.
func (t *Thread) Advance(cycles uint64) {
	t.now += cycles
	if t.k.obs != nil && cycles > 0 {
		t.k.obs.ClockAdvance(t, cycles)
	}
	// yield, spelled out: a running thread is always runnable, and one
	// call level fewer keeps the fast path as cheap as a single call.
	if !t.k.fastResume(t) {
		t.k.handoff(t)
	}
}

// WaitUntil blocks the thread until pred returns true. The predicate is
// evaluated in kernel context (no other thread running) after every event
// and thread step, and the thread resumes immediately once it holds, with
// its clock advanced to the unblocking time. Between WaitUntil returning and
// the thread's next yield no other thread can run, so a resource guarded by
// the predicate can be claimed race-free right after return. Predicates
// must be read-only: the kernel polls them at scheduling decisions and may
// poll a given predicate more or fewer times than simulated time suggests.
func (t *Thread) WaitUntil(pred func() bool) {
	if pred() {
		return
	}
	t.pred = pred
	t.state = stateBlocked
	t.yield()
}

// yield returns control to the scheduler. Fast path: if this thread is
// still the unique earliest runnable entity, the kernel's dispatch
// decision is computed inline and control returns immediately — same
// scheduling outcome, no goroutine handoff. Otherwise the thread parks
// and runs the scheduling loop itself (Kernel.handoff).
func (t *Thread) yield() {
	if t.state == stateRunnable && t.k.fastResume(t) {
		return
	}
	t.k.handoff(t)
}
