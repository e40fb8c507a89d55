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

// checkImage runs the benchmark's own structural check over the
// recovered image: the invariants its crash-free run is held to. Every
// operation updates its cells in one atomic region, so any torn region
// shows up here.
func checkImage(t *testing.T, img *memdev.Image, b workload.Benchmark) {
	t.Helper()
	if msg := b.Check(func(addr uint64) uint64 { return readU64(img, addr) }); msg != "" {
		t.Fatalf("persisted image: %s", msg)
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
			workload.Run(env, []workload.Benchmark{q}, wcfg)
		}()
		if cs == nil {
			cs = e.Crash()
		}
		if e.ActiveRegions() > 0 {
			caught++
		}
		if _, err := RecoverWithOptions(cs, Options{}); err != nil {
			t.Fatalf("seed %d crash@%d: recovery failed: %v", seed, at, err)
		}
		t.Logf("seed %d crash@%d", seed, at)
		checkImage(t, cs.Image, q)
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
		workload.Run(env, []workload.Benchmark{h}, wcfg)
		if cs == nil {
			cs = e.Crash()
		}
		if _, err := RecoverWithOptions(cs, Options{}); err != nil {
			t.Fatalf("seed %d crash@%d: %v", seed, at, err)
		}
		t.Logf("seed %d crash@%d", seed, at)
		checkImage(t, cs.Image, h)
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
