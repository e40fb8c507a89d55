// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel multiplexes simulated threads (each backed by a goroutine, but
// with exactly one ever running at a time) over a shared virtual clock, and
// fires scheduled hardware events at exact cycles. Scheduling is
// lowest-virtual-clock-first with a monotone sequence number as tiebreaker,
// so a simulation is fully reproducible.
//
// The inner loop is built for wall-clock speed without changing a single
// scheduling decision (DESIGN.md §10): threads that remain the unique
// earliest entity resume directly from their own yield (no goroutine
// switch); otherwise the yielding thread runs the scheduling loop itself
// and hands control straight to the next thread (one switch, none if it
// is picked again). Runnable threads wait in an indexed run queue instead
// of being rescanned, blocked threads live in a separate waiter set so
// predicates are polled only over the blocked subset, and fired events are
// pooled so Schedule allocates nothing steady-state.
package sim

import (
	"runtime"
	"sync"
)

// Kernel is the simulation scheduler. The zero value is not usable; create
// one with NewKernel.
//
// Scheduling state invariant: between steps, every live thread is in
// exactly one place — the run queue (runnable, waiting for dispatch), the
// waiter set (blocked on a predicate), or running (at most one: the thread
// whose goroutine holds control, from being picked until its next park).
// Finished threads are dropped at park time. The scheduling loop, events,
// predicates and observer callbacks run on whichever goroutine holds
// control: Run's caller until the first thread starts, then the goroutine
// of the thread that last yielded.
type Kernel struct {
	threads []*Thread
	runq    runQueue
	waiters []*Thread // blocked threads, ascending spawn order
	events  eventQueue
	now     uint64
	seq     uint64
	running bool
	halted  bool
	obs     Observer

	// Forward-progress watchdog (stall.go). wdAt is the kernel time the
	// current no-progress window opened; wdProgress the progress counter
	// sampled then.
	wd         *Watchdog
	wdAt       uint64
	wdProgress uint64

	// Run's outcome. A thread goroutine that ends the run records it here
	// and signals end; Run waits on end while threads hold control, and
	// on live for every thread goroutine to exit before it returns.
	end      chan struct{}
	err      error
	panicVal any // non-nil: a recovered panic, re-raised by Run
	live     sync.WaitGroup
}

// Halt makes Run return at the next scheduling decision without running
// further threads or events. It models a power failure: whatever state the
// hardware holds at this instant is what a crash snapshot sees. Halt is
// called from thread or event context.
func (k *Kernel) Halt() { k.halted = true }

// Halted reports whether Halt was called.
func (k *Kernel) Halted() bool { return k.halted }

// NewKernel returns an empty kernel at cycle 0.
func NewKernel() *Kernel {
	return &Kernel{end: make(chan struct{})}
}

// Now returns the kernel's current virtual time in cycles: the time of the
// most recent event fired or thread step begun.
func (k *Kernel) Now() uint64 { return k.now }

// Spawn registers a simulated thread that will execute fn when Run is
// called. The thread's virtual clock starts at the kernel's current time.
// Spawn may also be called from inside a running thread to fork workers.
// A panic in fn ends the run and is re-raised by Run on its caller's
// goroutine. A thread still unfinished when Run returns is ended with
// runtime.Goexit: its deferred calls run and must not use the Thread.
func (k *Kernel) Spawn(name string, fn func(t *Thread)) *Thread {
	t := &Thread{
		k:      k,
		id:     len(k.threads),
		name:   name,
		now:    k.now,
		state:  stateRunnable,
		resume: make(chan struct{}),
	}
	k.threads = append(k.threads, t)
	k.runq.push(t)
	if k.obs != nil {
		k.obs.ThreadStart(t)
	}
	k.live.Add(1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				t.state = stateDone // release must not resume this goroutine
				k.panicVal = p
				k.end <- struct{}{}
			}
			k.live.Done()
		}()
		<-t.resume
		if t.state == stateDone {
			return // released by Run before it ever started
		}
		fn(t)
		t.state = stateDone
		k.handoff(t)
	}()
	return t
}

// Schedule registers fn to run at absolute cycle at. Events scheduled for a
// time earlier than the kernel clock fire as soon as possible. fn runs in
// kernel context: no simulated thread is executing concurrently, so it may
// mutate shared hardware state freely.
func (k *Kernel) Schedule(at uint64, fn func()) {
	k.seq++
	k.events.push(k.events.get(at, k.seq, fn))
}

// ScheduleAfter registers fn to run delay cycles from now.
func (k *Kernel) ScheduleAfter(delay uint64, fn func()) {
	k.Schedule(k.now+delay, fn)
}

// Run drives the simulation until every spawned thread has finished and the
// event queue is drained, then returns nil. If all remaining threads are
// blocked and no event can unblock them (simulated deadlock), or an
// attached Watchdog diagnoses a livelock, Run returns a *StallError
// carrying the blocked report, structure gauges, and protocol snapshot.
// Callers that treat any stall as fatal can use MustRun. A panic in a
// thread, event, predicate or observer ends the run and is re-raised here.
// However the run ends, no goroutine of this kernel outlives Run.
func (k *Kernel) Run() error {
	if k.running {
		panic("sim: Run called re-entrantly")
	}
	k.running = true
	k.err, k.panicVal = nil, nil
	defer k.release()

	if t := k.dispatch(); t != nil {
		t.resume <- struct{}{}
		<-k.end
	}
	if k.panicVal != nil {
		panic(k.panicVal)
	}
	return k.err
}

// dispatch is the scheduling loop. It runs on whichever goroutine holds
// control: Run's until the first thread starts, afterwards the goroutine
// of the thread that just yielded or finished. It fires every event due
// before the next thread step and returns the thread to run next, claimed
// and with its clock brought up to date. It returns nil when the run is
// over, with the outcome in k.err.
func (k *Kernel) dispatch() *Thread {
	for {
		if k.halted {
			return nil
		}
		if err := k.checkWatchdog(); err != nil {
			k.err = err
			return nil
		}
		t, tEff := k.pickThread()
		ev := k.events.peek()

		switch {
		case ev != nil && (t == nil || ev.at <= tEff):
			k.events.pop()
			if ev.at > k.now {
				k.now = ev.at
				if k.obs != nil {
					k.obs.Tick(k.now)
				}
			}
			fn := ev.fn
			k.events.put(ev)
			fn()
		case t != nil:
			if t.state == stateBlocked {
				// Claim the wakeup now so no sibling waiter can also slip
				// past its predicate before this thread reacts.
				t.pred = nil
				t.state = stateRunnable
				k.removeWaiter(t)
			} else {
				k.runq.pop() // t is the run-queue minimum
			}
			if k.now > t.now {
				delta := k.now - t.now
				t.now = k.now
				if k.obs != nil {
					k.obs.ClockAdvance(t, delta)
				}
			}
			if t.now > k.now {
				k.now = t.now
				if k.obs != nil {
					k.obs.Tick(k.now)
				}
			}
			return t
		default:
			if len(k.waiters) > 0 {
				k.err = k.stallError(StallDeadlock)
			}
			return nil // run queue empty, no waiters: every thread is done
		}
	}
}

// handoff gives up control on t's goroutine after t yielded or finished:
// it files t, runs dispatch, and passes control on. It returns at once if
// dispatch picked t again; otherwise it resumes the chosen thread (or
// signals Run that the run is over) and, unless t has finished, waits
// until t is resumed in turn. A thread resumed by release exits here.
func (k *Kernel) handoff(t *Thread) {
	k.park(t)
	next := k.dispatch()
	if next == t {
		return
	}
	done := t.state == stateDone // read before another goroutine holds control
	if next != nil {
		next.resume <- struct{}{}
	} else {
		k.end <- struct{}{}
	}
	if done {
		return
	}
	<-t.resume
	if t.state == stateDone {
		runtime.Goexit()
	}
}

// release ends every thread goroutine still waiting for control, whether
// queued, blocked or never started, and waits for all of the kernel's
// thread goroutines to exit. A released thread runs no more simulated
// code: it sees stateDone on waking and exits.
func (k *Kernel) release() {
	for _, t := range k.threads {
		if t.state != stateDone {
			t.state = stateDone
			t.resume <- struct{}{}
		}
	}
	k.runq = runQueue{}
	k.waiters = nil
	k.live.Wait()
	k.running = false
}

// park files a thread that just yielded into the structure matching its
// state. Finished threads are dropped; they never re-enter scheduling.
func (k *Kernel) park(t *Thread) {
	switch t.state {
	case stateRunnable:
		k.runq.push(t)
	case stateBlocked:
		k.insertWaiter(t)
	}
}

// pickThread returns the thread that should run next and its effective
// time: among run-queue threads and blocked threads whose predicate
// currently holds, the one with the smallest effective clock, breaking
// ties by spawn order. Predicates are evaluated here, at scheduling time,
// so exactly one waiter can win a just-freed resource — and only waiters
// that could actually beat the run-queue minimum are polled, which is
// safe because predicates are read-only.
func (k *Kernel) pickThread() (*Thread, uint64) {
	best := k.runq.peek()
	var bestEff uint64
	if best != nil {
		bestEff = best.now // runnable: effective time is its own clock
	}
	for _, w := range k.waiters {
		eff := w.now
		if k.now > eff {
			// Blocked threads lag: they can only resume at the instant the
			// kernel unblocks them.
			eff = k.now
		}
		if best != nil && (eff > bestEff || (eff == bestEff && w.id > best.id)) {
			continue // cannot win regardless of its predicate
		}
		if !w.pred() {
			continue
		}
		best, bestEff = w, eff
	}
	return best, bestEff
}

// insertWaiter files t into the waiter set, keeping ascending spawn order
// so pickThread's scan preserves the original tie-break.
func (k *Kernel) insertWaiter(t *Thread) {
	i := len(k.waiters)
	for i > 0 && k.waiters[i-1].id > t.id {
		i--
	}
	k.waiters = append(k.waiters, nil)
	copy(k.waiters[i+1:], k.waiters[i:])
	k.waiters[i] = t
}

// removeWaiter unfiles a claimed waiter.
func (k *Kernel) removeWaiter(t *Thread) {
	for i, w := range k.waiters {
		if w == t {
			k.waiters = append(k.waiters[:i], k.waiters[i+1:]...)
			return
		}
	}
	panic("sim: blocked thread missing from waiter set: " + t.name)
}

// fastResume is the direct-dispatch fast path, called from a runnable
// thread's own yield. It reports whether t is still the unique next
// scheduling choice — no pending event at or before t's clock, no
// runnable thread and no satisfied waiter that would be picked instead —
// and if so performs the dispatch bookkeeping (kernel clock advance and
// observer Tick) inline, so control returns straight to t without the
// park/resume goroutine round-trip. The decision procedure mirrors
// pickThread exactly; only the handoff is elided.
func (k *Kernel) fastResume(t *Thread) bool {
	if k.halted {
		return false // Run must regain control to stop the simulation
	}
	if k.wdDue(t.now) {
		return false // watchdog window expired: Run must perform the check
	}
	if ev := k.events.peek(); ev != nil && ev.at <= t.now {
		return false // an event fires first (events win ties)
	}
	if r := k.runq.peek(); r != nil && (r.now < t.now || (r.now == t.now && r.id < t.id)) {
		return false // another runnable thread is earlier
	}
	for _, w := range k.waiters {
		eff := w.now
		if k.now > eff {
			eff = k.now
		}
		if eff > t.now || (eff == t.now && w.id > t.id) {
			continue // loses the tie-break to t even if unblocked
		}
		if w.pred() {
			return false // an earlier waiter just became runnable
		}
	}
	if t.now > k.now {
		k.now = t.now
		if k.obs != nil {
			k.obs.Tick(k.now)
		}
	}
	return true
}
