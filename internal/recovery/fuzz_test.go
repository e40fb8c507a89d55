package recovery

import (
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"strconv"
	"testing"

	"asap/internal/arch"
	"asap/internal/core"
	"asap/internal/machine"
	"asap/internal/memdev"
	"asap/internal/sim"
	"asap/internal/workload"
)

// fuzzSeed returns the crash-fuzz seed: ASAP_FUZZ_SEED when set (so a CI
// failure can be reproduced locally with the exact same crash schedule),
// otherwise a fixed default. The seed is always logged so any failure
// message can be paired with it.
func fuzzSeed(t *testing.T) int64 {
	seed := int64(1)
	if env := os.Getenv("ASAP_FUZZ_SEED"); env != "" {
		v, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("ASAP_FUZZ_SEED=%q is not an integer: %v", env, err)
		}
		seed = v
	}
	t.Logf("fuzz seed %d (override with ASAP_FUZZ_SEED)", seed)
	return seed
}

// fuzzCrashPoints derives n crash cycles from the seed, log-uniformly
// spread over [lo, hi) so both early (dense WPQ traffic) and late (deep
// dependence chains) windows are hit.
func fuzzCrashPoints(seed int64, n int, lo, hi uint64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]uint64, n)
	for i := range out {
		span := float64(hi) / float64(lo)
		out[i] = uint64(float64(lo) * math.Pow(span, rng.Float64()))
	}
	return out
}

// readU64 reads a little-endian uint64 from the persisted image.
func readU64(img *memdev.Image, addr uint64) uint64 {
	line := img.Read(arch.LineOf(addr))
	off := addr % arch.LineSize
	return binary.LittleEndian.Uint64(line[off : off+8])
}

// checkPersistedQueue walks the Q benchmark's structure in the recovered
// image and validates the same invariants its live Check does: chain
// length equals the count cell, the tail points at the last node, and the
// enqueue/dequeue totals reconcile. Every Q operation updates all these
// cells in one atomic region, so any torn region shows up here.
func checkPersistedQueue(t *testing.T, img *memdev.Image, q *workload.Queue) {
	t.Helper()
	head := readU64(img, q.HeadCellAddr())
	count := readU64(img, q.CountCellAddr())
	enq := readU64(img, q.EnqCellAddr())
	deq := readU64(img, q.DeqCellAddr())
	tail := readU64(img, q.TailCellAddr())

	n := uint64(0)
	last := uint64(0)
	for cur := head; cur != 0; cur = readU64(img, cur) {
		last = cur
		n++
		if n > 1<<20 {
			t.Fatal("cycle in persisted queue")
		}
	}
	if n != count {
		t.Fatalf("persisted chain length %d != count cell %d", n, count)
	}
	if tail != last {
		t.Fatalf("persisted tail %#x != last node %#x", tail, last)
	}
	if enq-deq != n {
		t.Fatalf("persisted enq %d - deq %d != %d", enq, deq, n)
	}
}

// TestCrashRecoveryFuzzQueue runs the real Q benchmark multi-threaded,
// crashes at pseudo-random points, recovers, and validates the persisted
// structure — end-to-end over workload, engine, WAL, WPQ and recovery.
func TestCrashRecoveryFuzzQueue(t *testing.T) {
	seed := fuzzSeed(t)
	crashPoints := fuzzCrashPoints(seed, 12, 900, 91_000)
	caught := 0
	for _, at := range crashPoints {
		cfg := machine.DefaultConfig()
		cfg.Cores = 4
		cfg.Mem.Controllers, cfg.Mem.ChannelsPerMC = 1, 2
		cfg.Mem.WPQEntries = 8
		cfg.Mem.PMWriteCycles = 900 // slow device: long uncommitted windows
		m := machine.New(cfg)
		e := core.NewEngine(m, core.DefaultOptions())

		q := workload.NewQueue()
		env := &workload.Env{M: m, S: e}
		var cs *core.CrashState
		wcfg := workload.Config{
			ValueBytes: 64, InitialItems: 24, Threads: 3, OpsPerThread: 40, Seed: int64(at),
			// The initial structure must itself be durable for the image
			// walk to make sense, and crashes arm only once measurement
			// begins (setup is not part of any paper experiment).
			SetupInRegions: true,
			MeasureStarted: func(start uint64) {
				m.K.Schedule(start+at, func() { cs = e.Crash() })
			},
		}
		func() {
			defer func() {
				// Run panics if the kernel halts mid-run leave goroutines
				// parked; Halt returns cleanly, so nothing to recover,
				// but keep the barrier for safety.
				_ = recover()
			}()
			workload.Run(env, q, wcfg)
		}()
		if cs == nil {
			cs = e.Crash()
		}
		if e.ActiveRegions() > 0 {
			caught++
		}
		if _, err := Recover(cs); err != nil {
			t.Fatalf("seed %d crash@%d: recovery failed: %v", seed, at, err)
		}
		t.Logf("seed %d crash@%d", seed, at)
		checkPersistedQueue(t, cs.Image, q)
	}
	if caught < 3 {
		t.Fatalf("seed %d: only %d/%d crash points caught in-flight regions; fuzz too weak", seed, caught, len(crashPoints))
	}
}

// TestCrashRecoveryFuzzHashMap does the same for HM: after recovery every
// bucket chain must be intact (nodes hash to their bucket, no duplicates)
// and the stripe counters must equal the reachable nodes.
func TestCrashRecoveryFuzzHashMap(t *testing.T) {
	seed := fuzzSeed(t)
	for _, at := range fuzzCrashPoints(seed+1, 4, 1_500, 55_000) {
		cfg := machine.DefaultConfig()
		cfg.Cores = 4
		cfg.Mem.Controllers, cfg.Mem.ChannelsPerMC = 1, 2
		cfg.Mem.WPQEntries = 8
		cfg.Mem.PMWriteCycles = 900
		m := machine.New(cfg)
		e := core.NewEngine(m, core.DefaultOptions())

		h := workload.NewHashMap()
		env := &workload.Env{M: m, S: e}
		var cs *core.CrashState
		wcfg := workload.Config{
			ValueBytes: 64, InitialItems: 32, Threads: 3, OpsPerThread: 30, Seed: int64(at),
			SetupInRegions: true,
			MeasureStarted: func(start uint64) {
				m.K.Schedule(start+at, func() { cs = e.Crash() })
			},
		}
		workload.Run(env, h, wcfg)
		if cs == nil {
			cs = e.Crash()
		}
		if _, err := Recover(cs); err != nil {
			t.Fatalf("seed %d crash@%d: %v", seed, at, err)
		}
		t.Logf("seed %d crash@%d", seed, at)
		checkPersistedHashMap(t, cs.Image, h)
	}
}

func checkPersistedHashMap(t *testing.T, img *memdev.Image, h *workload.HashMap) {
	t.Helper()
	reachable := uint64(0)
	for b := uint64(0); b < h.BucketCount(); b++ {
		seen := map[uint64]bool{}
		for cur := readU64(img, h.BucketHeadAddr(b)); cur != 0; cur = readU64(img, cur+8) {
			key := readU64(img, cur)
			if key%h.BucketCount() != b {
				t.Fatalf("persisted key %d in wrong bucket %d", key, b)
			}
			if seen[key] {
				t.Fatalf("persisted duplicate key %d in bucket %d", key, b)
			}
			seen[key] = true
			reachable++
		}
	}
	var counted uint64
	for s := 0; s < h.StripeCount(); s++ {
		counted += readU64(img, h.CountCellAddr(s))
	}
	if counted != reachable {
		t.Fatalf("persisted counters %d != reachable nodes %d", counted, reachable)
	}
}

// Guard: the fuzz relies on Run returning cleanly after Halt; verify the
// kernel indeed stops without deadlock panics.
func TestHaltDuringWorkloadReturns(t *testing.T) {
	m := machine.New(machine.Config{Cores: 2})
	e := core.NewEngine(m, core.DefaultOptions())
	m.K.Schedule(100, func() { m.K.Halt() })
	m.K.Spawn("w", func(th *sim.Thread) {
		e.InitThread(th)
		for i := 0; i < 1000; i++ {
			e.Begin(th)
			var b [8]byte
			e.Store(th, 0x1000_0000, b[:])
			e.End(th)
		}
	})
	m.K.MustRun()
	if !m.K.Halted() {
		t.Fatal("kernel did not halt")
	}
}
