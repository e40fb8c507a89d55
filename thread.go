package asap

import (
	"encoding/binary"

	"asap/internal/arch"
	"asap/internal/machine"
	"asap/internal/sim"
)

// Thread is a simulated hardware thread bound to a System. All persistent
// data access goes through it so the active scheme can time and log every
// operation. Methods must only be called from within the thread's own
// function.
type Thread struct {
	sys *System
	t   *sim.Thread
}

// ID returns the thread's spawn index.
func (t *Thread) ID() int { return t.t.ID() }

// Now returns the thread's virtual clock in cycles.
func (t *Thread) Now() uint64 { return t.t.Now() }

// Begin opens an atomic region (asap_begin). Nested regions flatten.
func (t *Thread) Begin() { t.sys.scheme.Begin(t.t) }

// End closes the current atomic region (asap_end). Under ASAP execution
// proceeds immediately; synchronous schemes wait here.
func (t *Thread) End() { t.sys.scheme.End(t.t) }

// Fence blocks until the thread's latest region — and transitively all
// regions it depends on — has committed (asap_fence, §5.2). Call it
// before externally visible actions such as I/O.
func (t *Thread) Fence() { t.sys.scheme.Fence(t.t) }

// Drain blocks until every outstanding region in the system has committed
// and the memory fabric is idle.
func (t *Thread) Drain() { t.sys.scheme.DrainBarrier(t.t) }

// Malloc allocates persistent memory (asap_malloc).
func (t *Thread) Malloc(size int) uint64 {
	t.t.Advance(30)
	return t.sys.m.Heap.Alloc(uint64(size), true)
}

// Free releases persistent memory (asap_free). Inside an atomic region
// the memory recycles only once the region commits, keeping reuse safe
// against rollback.
func (t *Thread) Free(addr uint64) {
	t.t.Advance(15)
	if df, ok := t.sys.scheme.(machine.DeferredFreer); ok {
		df.DeferFree(t.t, addr)
		return
	}
	t.sys.m.Heap.Free(addr)
}

// Load reads len(buf) bytes at addr.
func (t *Thread) Load(addr uint64, buf []byte) { t.sys.scheme.Load(t.t, addr, buf) }

// Store writes data at addr.
func (t *Thread) Store(addr uint64, data []byte) { t.sys.scheme.Store(t.t, addr, data) }

// LoadUint64 reads a little-endian uint64.
func (t *Thread) LoadUint64(addr uint64) uint64 {
	var b [8]byte
	t.Load(addr, b[:])
	return binary.LittleEndian.Uint64(b[:])
}

// StoreUint64 writes a little-endian uint64.
func (t *Thread) StoreUint64(addr, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	t.Store(addr, b[:])
}

// Compute advances the thread's clock by register-only work.
func (t *Thread) Compute(cycles uint64) { t.t.Advance(cycles) }

// Spawn forks another simulated thread from inside this one.
func (t *Thread) Spawn(name string, fn func(t *Thread)) { t.sys.Spawn(name, fn) }

// Migrate context-switches the thread onto another core (§5.7). Under
// ASAP the hardware drains and re-homes the thread's CL List entry; other
// schemes just remap the core.
func (t *Thread) Migrate(core int) {
	if m, ok := t.sys.scheme.(machine.Migrator); ok {
		m.Migrate(t.t, core)
		return
	}
	t.t.Advance(1000)
	t.sys.m.SetCore(t.t, core)
}

// WaitUntil blocks the thread until pred holds; pred is evaluated with no
// other thread running.
func (t *Thread) WaitUntil(pred func() bool) { t.t.WaitUntil(pred) }

// Sim returns the underlying simulated thread, for integrations that work
// at the machine layer.
func (t *Thread) Sim() *sim.Thread { return t.t }

// Mutex is a lock between simulated threads: nest conflicting atomic
// regions inside critical sections guarded by one (§4.2).
type Mutex struct {
	mu sim.Mutex
}

// Lock blocks t until the mutex is free, then takes it.
func (m *Mutex) Lock(t *Thread) { m.mu.Lock(t.t) }

// Unlock releases the mutex; it panics if t is not the holder.
func (m *Mutex) Unlock(t *Thread) { m.mu.Unlock(t.t) }

// TryLock takes the mutex if free and reports whether it did.
func (m *Mutex) TryLock(t *Thread) bool { return m.mu.TryLock(t.t) }

// lineOf aliases the internal line mapping for the crash-image readers.
func lineOf(addr uint64) arch.LineAddr { return arch.LineOf(addr) }
