package cache

// Micro-benchmarks for the machine-model hot paths, mirroring the
// internal/sim suite: run with
//
//	go test -run '^$' -bench . -benchmem -count 8 ./internal/cache > new.txt
//	benchstat BENCH_cache_micro.txt new.txt
//
// BENCH_cache_micro.txt at the repo root is the committed baseline; CI's
// bench-regression job compares PR base and head with benchstat and fails
// on a >10% geomean regression.

import (
	"testing"

	"asap/internal/arch"
	"asap/internal/memdev"
	"asap/internal/sim"
	"asap/internal/stats"
)

func benchHierarchy(cores int) *Hierarchy {
	st := stats.New()
	f := memdev.NewFabric(sim.NewKernel(), st, memdev.DefaultConfig())
	return NewHierarchy(st, f, cores, DefaultConfig(), func(arch.LineAddr) bool { return true })
}

// BenchmarkL1Hit is the dominant machine-model operation: every load and
// store of every scheme starts with this probe.
func BenchmarkL1Hit(b *testing.B) {
	h := benchHierarchy(1)
	h.Access(0, line(0), false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(0, line(0), false)
	}
}

// BenchmarkL1HitSpread cycles through a working set that fits the L1, the
// realistic hit pattern (different sets, warm tags).
func BenchmarkL1HitSpread(b *testing.B) {
	h := benchHierarchy(1)
	const lines = 256 // half the 64-set x 8-way L1
	for i := 0; i < lines; i++ {
		h.Access(0, line(i), false)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(0, line(i%lines), false)
	}
}

// BenchmarkL2Hit measures the first miss level: an L1 conflict that the
// private L2 absorbs.
func BenchmarkL2Hit(b *testing.B) {
	h := benchHierarchy(1)
	// 9 lines mapping to one L1 set (64 sets): one more than its 8 ways,
	// so each access misses L1 and hits L2.
	for i := 0; i < 9; i++ {
		h.Access(0, line(i*64), false)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(0, line((i%9)*64), false)
	}
}

// BenchmarkMissFill exercises the full miss path including LLC victim
// selection and the eviction walk, the most expensive single access.
func BenchmarkMissFill(b *testing.B) {
	h := benchHierarchy(1)
	// More lines in one L3 set than its 16 ways: every access is a memory
	// fill plus an LLC eviction at steady state.
	const conflicting = 24
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(0, line((i%conflicting)*8192), false)
	}
}

// BenchmarkWriteInvalidate measures the coherence path: two cores
// alternately writing one line, each write invalidating the other's
// private copies.
func BenchmarkWriteInvalidate(b *testing.B) {
	h := benchHierarchy(2)
	h.Access(0, line(0), true)
	h.Access(1, line(0), true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(i&1, line(0), true)
	}
}

// BenchmarkTablePeek is the invariant engine's per-scan probe.
func BenchmarkTablePeek(b *testing.B) {
	h := benchHierarchy(1)
	for i := 0; i < 1024; i++ {
		h.Access(0, line(i), false)
	}
	t := h.Table()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Peek(line(i % 1024))
	}
}

// BenchmarkMetaByHandle is the flattened-store fast path: resolving a
// compact handle to its metadata is an array index, not a map probe.
func BenchmarkMetaByHandle(b *testing.B) {
	h := benchHierarchy(1)
	for i := 0; i < 1024; i++ {
		h.Access(0, line(i), false)
	}
	t := h.Table()
	handles := make([]Handle, 1024)
	for i := range handles {
		handles[i], _ = t.GetH(line(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = t.At(handles[i%1024])
	}
}

// BenchmarkPersistRoundTrip drives the memdev pooling: submit-accept-drain
// cycles reusing WPQ entries, measured end to end through the kernel.
func BenchmarkPersistRoundTrip(b *testing.B) {
	k := sim.NewKernel()
	st := stats.New()
	f := memdev.NewFabric(k, st, memdev.DefaultConfig())
	payload := make([]byte, arch.LineSize)
	b.ReportAllocs()
	b.ResetTimer()
	k.Spawn("bench", func(t *sim.Thread) {
		for i := 0; i < b.N; i++ {
			done := false
			e := f.NewEntry(memdev.KindDPO, arch.NoRID, line(i%64), line(i%64))
			e.SetPayload(payload)
			f.SubmitPersist(e, func(uint64) { done = true })
			t.WaitUntil(func() bool { return done && f.Quiesced() })
		}
	})
	k.MustRun()
}
