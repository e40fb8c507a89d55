package sim

// Equivalence property test: replay identical randomized workloads on the
// optimized kernel and the pre-optimization reference kernel
// (refkernel_test.go) and require bit-for-bit identical step traces —
// same (thread, op, thread clock, kernel clock) at every step and the
// same event firing order. Programs are fully generated up front from a
// seed, so both replays execute the same program and any trace divergence
// is a scheduling difference, not workload noise.

import (
	"fmt"
	"math/rand"
	"testing"
)

// simAPI abstracts the two kernels behind one surface so a single
// workload program can drive both.
type simAPI interface {
	spawn(name string, fn func(threadAPI))
	schedule(at uint64, fn func())
	now() uint64
	halt()
	run()
}

type threadAPI interface {
	advance(uint64)
	yieldStep()
	waitUntil(func() bool)
	sleepUntil(uint64)
	now() uint64
}

// Optimized-kernel adapter.

type newSim struct{ k *Kernel }

type newThread struct{ t *Thread }

func (s newSim) spawn(name string, fn func(threadAPI)) {
	s.k.Spawn(name, func(t *Thread) { fn(newThread{t}) })
}
func (s newSim) schedule(at uint64, fn func()) { s.k.Schedule(at, fn) }
func (s newSim) now() uint64                   { return s.k.Now() }
func (s newSim) halt()                         { s.k.Halt() }
func (s newSim) run()                          { s.k.Run() }

func (t newThread) advance(c uint64)        { t.t.Advance(c) }
func (t newThread) yieldStep()              { t.t.yield() }
func (t newThread) waitUntil(p func() bool) { t.t.WaitUntil(p) }
func (t newThread) sleepUntil(at uint64)    { sleepUntil(t.t, at) }
func (t newThread) now() uint64             { return t.t.Now() }

// sleepUntil blocks th until the kernel clock reaches at, anchored by an
// empty event so the clock gets there even if nothing else is scheduled.
func sleepUntil(th *Thread, at uint64) {
	if th.now < at {
		th.k.Schedule(at, func() {})
		th.WaitUntil(func() bool { return th.k.now >= at })
	}
}

// Reference-kernel adapter.

type refSim struct{ k *refKernel }

type refAPIThread struct{ t *refThread }

func (s refSim) spawn(name string, fn func(threadAPI)) {
	s.k.Spawn(name, func(t *refThread) { fn(refAPIThread{t}) })
}
func (s refSim) schedule(at uint64, fn func()) { s.k.Schedule(at, fn) }
func (s refSim) now() uint64                   { return s.k.Now() }
func (s refSim) halt()                         { s.k.Halt() }
func (s refSim) run()                          { s.k.Run() }

func (t refAPIThread) advance(c uint64)        { t.t.Advance(c) }
func (t refAPIThread) yieldStep()              { t.t.Yield() }
func (t refAPIThread) waitUntil(p func() bool) { t.t.WaitUntil(p) }
func (t refAPIThread) sleepUntil(at uint64)    { t.t.SleepUntil(at) }
func (t refAPIThread) now() uint64             { return t.t.now }

// Workload program, generated entirely before execution.

type opKind uint8

const (
	opAdvance  opKind = iota // advance a cycles
	opYield                  // bare yield
	opLockCS                 // emulated critical section: a inside, b after
	opWaitFlag               // block until flag a is set by an event
	opSleep                  // sleep a cycles past the thread clock
	opSpawn                  // fork child program a mid-run
)

type op struct {
	kind opKind
	a, b uint64
}

type program struct {
	threads  [][]op // spawned before run
	children [][]op // spawned by opSpawn, in index order
	// events: at flagEvents[i], flag i becomes set.
	flagEvents []uint64
	haltAt     uint64 // 0 = never
}

const numFlags = 6

// genProgram draws a complete randomized program from seed. All
// randomness is consumed here; execution is deterministic replay.
func genProgram(seed int64) program {
	r := rand.New(rand.NewSource(seed))
	var p program
	p.flagEvents = make([]uint64, numFlags)
	for i := range p.flagEvents {
		p.flagEvents[i] = uint64(5 + r.Intn(900))
	}
	if r.Intn(4) == 0 {
		p.haltAt = uint64(100 + r.Intn(800))
	}
	nChildren := r.Intn(3)
	for i := 0; i < nChildren; i++ {
		p.children = append(p.children, genOps(r, 0))
	}
	nThreads := 2 + r.Intn(5)
	for i := 0; i < nThreads; i++ {
		p.threads = append(p.threads, genOps(r, len(p.children)))
	}
	return p
}

func genOps(r *rand.Rand, nChildren int) []op {
	spawned := 0
	n := 20 + r.Intn(40)
	ops := make([]op, 0, n)
	for i := 0; i < n; i++ {
		switch r.Intn(12) {
		case 0, 1, 2, 3:
			ops = append(ops, op{kind: opAdvance, a: uint64(1 + r.Intn(40))})
		case 4, 5:
			ops = append(ops, op{kind: opYield})
		case 6, 7, 8:
			ops = append(ops, op{kind: opLockCS, a: uint64(1 + r.Intn(15)), b: uint64(r.Intn(10))})
		case 9:
			ops = append(ops, op{kind: opWaitFlag, a: uint64(r.Intn(numFlags))})
		case 10:
			ops = append(ops, op{kind: opSleep, a: uint64(1 + r.Intn(60))})
		case 11:
			if spawned < nChildren {
				ops = append(ops, op{kind: opSpawn, a: uint64(spawned)})
				spawned++
			} else {
				ops = append(ops, op{kind: opAdvance, a: uint64(1 + r.Intn(5))})
			}
		}
	}
	return ops
}

// replay executes p on s and returns the step trace.
func replay(p program, s simAPI) []string {
	var trace []string
	flags := make([]bool, numFlags)
	owner := -1 // emulated lock

	for i, at := range p.flagEvents {
		i, at := i, at
		s.schedule(at, func() {
			flags[i] = true
			trace = append(trace, fmt.Sprintf("ev flag%d k=%d", i, s.now()))
		})
	}
	if p.haltAt > 0 {
		s.schedule(p.haltAt, func() {
			trace = append(trace, fmt.Sprintf("ev halt k=%d", s.now()))
			s.halt()
		})
	}

	var runOps func(name string, ops []op, th threadAPI)
	runOps = func(name string, ops []op, th threadAPI) {
		step := func(i int, what string) {
			trace = append(trace, fmt.Sprintf("%s#%d %s t=%d k=%d", name, i, what, th.now(), s.now()))
		}
		for i, o := range ops {
			switch o.kind {
			case opAdvance:
				th.advance(o.a)
				step(i, "adv")
			case opYield:
				th.yieldStep()
				step(i, "yield")
			case opLockCS:
				th.waitUntil(func() bool { return owner == -1 })
				owner = 1 // claimed; identity is implied by the trace
				step(i, "lock")
				th.advance(o.a)
				owner = -1
				step(i, "unlock")
				th.advance(o.b)
			case opWaitFlag:
				f := int(o.a)
				th.waitUntil(func() bool { return flags[f] })
				step(i, "flag")
			case opSleep:
				th.sleepUntil(th.now() + o.a)
				step(i, "sleep")
			case opSpawn:
				child := p.children[o.a]
				cname := fmt.Sprintf("%s.c%d", name, o.a)
				s.spawn(cname, func(ct threadAPI) { runOps(cname, child, ct) })
				step(i, "spawn")
			}
		}
		step(len(ops), "done")
	}

	for i, ops := range p.threads {
		i, ops := i, ops
		name := fmt.Sprintf("w%d", i)
		s.spawn(name, func(th threadAPI) { runOps(name, ops, th) })
	}
	s.run()
	trace = append(trace, fmt.Sprintf("end k=%d", s.now()))
	return trace
}

func TestOptimizedKernelMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			p := genProgram(seed)
			got := replay(p, newSim{NewKernel()})
			want := replay(p, refSim{newRefKernel()})
			if len(got) != len(want) {
				t.Fatalf("trace length %d != reference %d\nlast new: %v\nlast ref: %v",
					len(got), len(want), tail(got), tail(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("step %d diverged:\n  new: %s\n  ref: %s", i, got[i], want[i])
				}
			}
		})
	}
}

// TestOptimizedKernelSelfDeterministic replays the same program twice on
// the optimized kernel: the trace must be identical run to run.
func TestOptimizedKernelSelfDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		p := genProgram(seed)
		a := replay(p, newSim{NewKernel()})
		b := replay(p, newSim{NewKernel()})
		for i := range a {
			if i >= len(b) || a[i] != b[i] {
				t.Fatalf("seed %d: two runs diverged at step %d", seed, i)
			}
		}
	}
}

func tail(s []string) []string {
	if len(s) <= 3 {
		return s
	}
	return s[len(s)-3:]
}
