// Package machine wires the simulator substrates (kernel, caches, memory
// fabric, heap, stats) into one chassis that every persistence scheme plugs
// into, and defines the Scheme interface the schemes implement.
package machine

import (
	"asap/internal/arch"
	"asap/internal/cache"
	"asap/internal/heap"
	"asap/internal/memdev"
	"asap/internal/sim"
	"asap/internal/stats"
)

// Config assembles the whole system. Zero fields take Table 2 defaults.
type Config struct {
	Cores  int
	Mem    memdev.Config
	Caches cache.Config
}

// DefaultConfig returns the Table 2 system: 18 cores, 2 MCs x 2 channels,
// three-level caches.
func DefaultConfig() Config {
	return Config{
		Cores:  18,
		Mem:    memdev.DefaultConfig(),
		Caches: cache.DefaultConfig(),
	}
}

// Machine is the assembled hardware substrate.
type Machine struct {
	Cfg Config
	K   *sim.Kernel
	St  *stats.Set
	// Cells caches St's well-known counters as stable pointers for
	// per-event hot paths (engines, schemes, workload op counting).
	Cells  *stats.Cells
	Heap   *heap.Heap
	Fabric *memdev.Fabric
	Caches *cache.Hierarchy

	// cores remaps migrated threads (context switches, §5.7); threads not
	// present run on thread-ID mod Cores.
	cores map[int]int
}

// New builds a machine from cfg.
func New(cfg Config) *Machine {
	if cfg.Cores <= 0 {
		cfg.Cores = 18
	}
	if cfg.Mem.Controllers == 0 {
		cfg.Mem = memdev.DefaultConfig()
	}
	if cfg.Caches.L1.Sets == 0 {
		cfg.Caches = cache.DefaultConfig()
	}
	m := &Machine{
		Cfg:  cfg,
		K:    sim.NewKernel(),
		St:   stats.New(),
		Heap: heap.New(),
	}
	m.Cells = m.St.Cells()
	m.Fabric = memdev.NewFabric(m.K, m.St, cfg.Mem)
	m.Caches = cache.NewHierarchy(m.St, m.Fabric, cfg.Cores, cfg.Caches, m.Heap.IsPersistentLine)
	return m
}

// Release returns the machine's cache arrays to a pool that the next New
// draws from, so a sweep does not build and zero a full hierarchy per
// cell. Call it only after the kernel's Run has returned from a finished
// run — never after a halt or a stall, whose machine may still be read —
// and only when nothing else (a Checkpointer, an observer) still reads
// the machine: the caches must not be used afterwards. A machine that is
// never released is garbage-collected as usual.
func (m *Machine) Release() { m.Caches.Release() }

// CoreOf maps a simulated thread to its current core.
func (m *Machine) CoreOf(t *sim.Thread) int {
	if c, ok := m.cores[t.ID()]; ok {
		return c
	}
	return t.ID() % m.Cfg.Cores
}

// SetCore migrates a thread to another core (the scheduler's half of a
// context switch; schemes do their own hardware bookkeeping, §5.7).
func (m *Machine) SetCore(t *sim.Thread, core int) {
	if core < 0 || core >= m.Cfg.Cores {
		panic("machine: core out of range")
	}
	if m.cores == nil {
		m.cores = make(map[int]int)
	}
	m.cores[t.ID()] = core
}

// Migrator is implemented by schemes that support context switches: the
// thread's persistence-hardware state moves to another core.
type Migrator interface {
	Migrate(t *sim.Thread, core int)
}

// DeferredFreer is implemented by schemes whose asap_free must not recycle
// memory until the freeing region is durable: if the region rolled back on
// a crash, a reused-and-rewritten allocation would otherwise clobber data
// the rollback resurrects.
type DeferredFreer interface {
	DeferFree(t *sim.Thread, addr uint64)
}

// LinesOf returns every line touched by [addr, addr+size).
func LinesOf(addr uint64, size int) []arch.LineAddr {
	var out []arch.LineAddr
	VisitLines(addr, size, func(l arch.LineAddr) {
		out = append(out, l)
	})
	return out
}

// VisitLines calls fn for every line touched by [addr, addr+size), in
// ascending order. It is the allocation-free form of LinesOf for the
// access hot paths: every load and store in every scheme walks its lines
// through here.
func VisitLines(addr uint64, size int, fn func(arch.LineAddr)) {
	if size <= 0 {
		size = 1
	}
	first := arch.LineOf(addr)
	last := arch.LineOf(addr + uint64(size) - 1)
	for l := first; ; l += arch.LineSize {
		fn(l)
		if l >= last {
			break
		}
	}
}

// Access charges cache latency for one data access by t covering
// [addr, addr+size), calling touched for every line before the thread's
// clock advances. touched may be nil. It returns after the thread's clock
// has moved past the access.
func (m *Machine) Access(t *sim.Thread, addr uint64, size int, write bool, touched func(line arch.LineAddr)) {
	core := m.CoreOf(t)
	var total uint64
	VisitLines(addr, size, func(line arch.LineAddr) {
		if touched != nil {
			touched(line)
		}
		lat, _ := m.Caches.AccessBlocking(t, core, line, write)
		total += lat
	})
	t.Advance(total)
}

// Scheme is a persistence mechanism: it mediates every load and store and
// implements the atomic-region protocol. Exactly one scheme is active per
// machine.
type Scheme interface {
	// Name identifies the scheme in experiment output (NP, SW, HWUndo,
	// HWRedo, ASAP, ...).
	Name() string
	// InitThread is asap_init: set up per-thread log state.
	InitThread(t *sim.Thread)
	// Begin is asap_begin: open (or nest into) an atomic region.
	Begin(t *sim.Thread)
	// End is asap_end: close the region; synchronous schemes stall here.
	End(t *sim.Thread)
	// Fence is asap_fence: block until the thread's latest region (and its
	// dependence closure) has committed (§5.2).
	Fence(t *sim.Thread)
	// Load reads size bytes at addr into buf, charging simulated time.
	Load(t *sim.Thread, addr uint64, buf []byte)
	// Store writes data at addr, charging simulated time and performing
	// the scheme's logging work.
	Store(t *sim.Thread, addr uint64, data []byte)
	// DrainBarrier blocks until every outstanding region has committed and
	// the memory fabric has quiesced: the end-of-run accounting point.
	DrainBarrier(t *sim.Thread)
}
