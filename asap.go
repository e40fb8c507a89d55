// Package asap is a simulator and library for ASAP — Architecture Support
// for Asynchronous Persistence (ISCA 2022). It models a multi-core system
// with a three-level cache hierarchy and persistent memory behind
// ADR-protected write pending queues, and lets programs run atomically
// durable regions under one of several persistence schemes:
//
//   - ASAP: the paper's contribution — hardware undo logging with
//     asynchronous region commit and dependence tracking
//   - HWUndo / HWRedo: state-of-the-art synchronous-commit hardware
//     logging baselines
//   - SW / SWDPOOnly: software persistence with clwb+fence on the
//     critical path
//   - NP: no persistence enforcement (the performance upper bound)
//
// Programs execute as simulated threads: every Load and Store pays
// simulated time through the cache model and participates in the active
// scheme's logging protocol. Crash injection and recovery are first-class:
// Crash freezes the machine and returns the persistence-domain state, and
// Recover rolls uncommitted regions back in dependence order.
package asap

import (
	"fmt"

	"asap/internal/cache"
	"asap/internal/core"
	"asap/internal/machine"
	"asap/internal/memdev"
	"asap/internal/recovery"
	"asap/internal/schemes"
	"asap/internal/sim"
)

// Scheme selects the persistence mechanism for a System.
type Scheme string

// The available persistence schemes.
const (
	SchemeASAP      Scheme = "ASAP"
	SchemeASAPRedo  Scheme = "ASAP-Redo"
	SchemeHWUndo    Scheme = "HWUndo"
	SchemeHWRedo    Scheme = "HWRedo"
	SchemeSW        Scheme = "SW"
	SchemeSWDPOOnly Scheme = "SW-DPOOnly"
	SchemeNP        Scheme = "NP"
)

// Schemes lists every available scheme in the paper's comparison order.
func Schemes() []Scheme {
	return []Scheme{SchemeSW, SchemeHWRedo, SchemeHWUndo, SchemeASAP, SchemeNP}
}

// Config describes the simulated system. The zero value is not valid; use
// DefaultConfig (Table 2) and adjust.
type Config struct {
	// Scheme is the persistence mechanism (default ASAP).
	Scheme Scheme
	// Cores is the number of cores (Table 2: 18).
	Cores int
	// PMLatencyMultiplier scales persistent-memory device latency from the
	// battery-backed-DRAM baseline: the Figure 10 knob (1, 2, 4, 16).
	PMLatencyMultiplier int
	// WPQEntries is the per-channel write pending queue capacity.
	WPQEntries int
	// LHWPQEntries is the per-channel log-header WPQ capacity (§7.4
	// evaluates 16 against the default 128).
	LHWPQEntries int
	// MemoryControllers and ChannelsPerMC shape the fabric.
	MemoryControllers int
	ChannelsPerMC     int

	// ASAP holds engine options (traffic-optimization toggles, structure
	// sizes); ignored by other schemes.
	ASAP core.Options
}

// DefaultConfig returns the paper's Table 2 system running ASAP.
func DefaultConfig() Config {
	mem := memdev.DefaultConfig()
	return Config{
		Scheme:              SchemeASAP,
		Cores:               18,
		PMLatencyMultiplier: 1,
		WPQEntries:          mem.WPQEntries,
		LHWPQEntries:        mem.LHWPQEntries,
		MemoryControllers:   mem.Controllers,
		ChannelsPerMC:       mem.ChannelsPerMC,
		ASAP:                core.DefaultOptions(),
	}
}

// System is one simulated machine plus its persistence scheme.
type System struct {
	cfg    Config
	m      *machine.Machine
	scheme machine.Scheme
	engine *core.Engine // non-nil when Scheme == SchemeASAP
}

// NewSystem builds a system from cfg.
func NewSystem(cfg Config) (*System, error) {
	if cfg.Cores <= 0 {
		cfg.Cores = 18
	}
	if cfg.Scheme == "" {
		cfg.Scheme = SchemeASAP
	}
	mem := memdev.DefaultConfig()
	if cfg.WPQEntries > 0 {
		mem.WPQEntries = cfg.WPQEntries
	}
	if cfg.LHWPQEntries > 0 {
		mem.LHWPQEntries = cfg.LHWPQEntries
	}
	if cfg.MemoryControllers > 0 {
		mem.Controllers = cfg.MemoryControllers
	}
	if cfg.ChannelsPerMC > 0 {
		mem.ChannelsPerMC = cfg.ChannelsPerMC
	}
	if cfg.PMLatencyMultiplier > 0 {
		mem.PMLatencyMult = cfg.PMLatencyMultiplier
	}
	m := machine.New(machine.Config{Cores: cfg.Cores, Mem: mem, Caches: cache.DefaultConfig()})

	scheme, err := schemes.New(string(cfg.Scheme), m, &cfg.ASAP)
	if err != nil {
		return nil, fmt.Errorf("asap: %w", err)
	}
	engine, _ := scheme.(*core.Engine)
	return &System{cfg: cfg, m: m, scheme: scheme, engine: engine}, nil
}

// Spawn registers a simulated thread running fn. Call before Run (or from
// inside a running thread to fork workers). The thread is initialized for
// the active scheme (asap_init) before fn runs.
func (s *System) Spawn(name string, fn func(t *Thread)) {
	s.m.K.Spawn(name, func(st *sim.Thread) {
		s.scheme.InitThread(st)
		fn(&Thread{sys: s, t: st})
	})
}

// Run drives the simulation until every thread finishes. It returns a
// *sim.StallError when the machine cannot make forward progress — a
// deadlock among the spawned threads, or a livelock diagnosed by an
// installed watchdog — with the blocked-thread report and queue gauges
// attached. Existing call sites that ignore the result keep compiling;
// robust callers should check it.
func (s *System) Run() error { return s.m.K.Run() }

// Now returns the global simulated time in cycles.
func (s *System) Now() uint64 { return s.m.K.Now() }

// Stats returns a snapshot of every hardware counter (PM writes, LPOs,
// DPOs, drops, stalls, region counts, cache hits, ...).
func (s *System) Stats() map[string]int64 { return s.m.St.Snapshot() }

// Malloc allocates persistent memory outside any thread (setup).
func (s *System) Malloc(size int) uint64 { return s.m.Heap.Alloc(uint64(size), true) }

// Crash models a power failure at the current simulated instant (only
// meaningful from inside a running thread or event): ADR flushes the
// WPQs, the persistence-domain structures are captured, and the machine
// halts. Only valid under SchemeASAP, whose Dependence List makes
// recovery possible.
func (s *System) Crash() (*CrashState, error) {
	if s.engine == nil {
		return nil, fmt.Errorf("asap: crash recovery requires SchemeASAP, have %s", s.cfg.Scheme)
	}
	return &CrashState{cs: s.engine.Crash()}, nil
}

// Machine exposes the underlying machine for advanced integrations (the
// experiment harness and the workloads use it).
func (s *System) Machine() *machine.Machine { return s.m }

// SchemeImpl exposes the active scheme implementation.
func (s *System) SchemeImpl() machine.Scheme { return s.scheme }

// CrashState is the persistence-domain state surviving a power failure.
type CrashState struct {
	cs *core.CrashState
}

// RecoveryReport summarizes what Recover rolled back.
type RecoveryReport struct {
	// Uncommitted lists the rolled-back regions, newest first.
	Uncommitted int
	// EntriesRestored counts 64 B undo entries applied.
	EntriesRestored int
	// RecordsScanned counts valid log record headers found in the image.
	RecordsScanned int
	// LiveRecords counts log record slots allocated but not freed at the
	// crash — each one validated before the image was touched.
	LiveRecords int
	// Discarded counts corrupt lines classified as stale leftovers of
	// committed regions and ignored.
	Discarded int
}

// RecoverOptions tunes Recover.
type RecoverOptions struct {
	// SkipValidation disables the image integrity pass (checksums,
	// live-record accounting) and silently skips damaged material — the
	// unhardened recovery, kept only so the crash-consistency checker can
	// demonstrate what validation catches. Never set it in real use.
	SkipValidation bool
}

// Recover rolls every uncommitted region back in reverse happens-before
// order, repairing the persisted image in place (§5.5). Before modifying
// anything it validates the image: damaged undo material for an
// uncommitted region yields a *recovery.CorruptionError and the image is
// left untouched.
func (c *CrashState) Recover() (*RecoveryReport, error) {
	return c.RecoverWithOptions(RecoverOptions{})
}

// RecoverWithOptions is Recover with explicit options.
func (c *CrashState) RecoverWithOptions(opt RecoverOptions) (*RecoveryReport, error) {
	rep, err := recovery.RecoverWithOptions(c.cs, recovery.Options{SkipValidation: opt.SkipValidation})
	if err != nil {
		return nil, err
	}
	return &RecoveryReport{
		Uncommitted:     len(rep.Uncommitted),
		EntriesRestored: rep.EntriesRestored,
		RecordsScanned:  rep.RecordsScanned,
		LiveRecords:     rep.LiveRecords,
		Discarded:       len(rep.Discarded),
	}, nil
}

// ReadUint64 reads a little-endian uint64 from the persisted image.
func (c *CrashState) ReadUint64(addr uint64) uint64 {
	line := c.cs.Image.Read(lineOf(addr))
	off := addr % 64
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(line[off+uint64(i)]) << (8 * i)
	}
	return v
}
