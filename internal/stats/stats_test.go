package stats

import (
	"testing"
)

func TestAddGet(t *testing.T) {
	s := New()
	*s.Counter(PMWrites) += 5
	*s.Counter(PMWrites)++
	if got := s.Get(PMWrites); got != 6 {
		t.Fatalf("Get = %d, want 6", got)
	}
	if got := s.Get("untouched"); got != 0 {
		t.Fatalf("untouched counter = %d, want 0", got)
	}
}

func TestNamesSorted(t *testing.T) {
	s := New()
	*s.Counter("zeta")++
	*s.Counter("alpha")++
	*s.Counter("mid")++
	names := s.Names()
	want := []string{"alpha", "mid", "zeta"}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("Names = %v, want %v", names, want)
		}
	}
}

func TestSnapshotIsCopy(t *testing.T) {
	s := New()
	*s.Counter("x")++
	snap := s.Snapshot()
	*s.Counter("x") += 10
	if snap["x"] != 1 {
		t.Fatalf("snapshot mutated: %d", snap["x"])
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := &Histogram{}
	for i := uint64(1); i <= 1000; i++ {
		h.Observe(i)
	}
	if h.count != 1000 {
		t.Fatalf("count = %d", h.count)
	}
	p50 := h.Quantile(0.5)
	p99 := h.Quantile(0.99)
	// Log-linear buckets give ~12% resolution: p50 of 1..1000 is ~500,
	// p99 is ~990.
	if p50 < 450 || p50 > 600 {
		t.Fatalf("p50 = %d, want near 500", p50)
	}
	if p99 < 900 || p99 > 1150 {
		t.Fatalf("p99 = %d, want near 990", p99)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := &Histogram{}
	if h.Quantile(0.99) != 0 {
		t.Fatal("empty histogram quantile should be 0")
	}
}

func TestHistogramZeroValues(t *testing.T) {
	h := &Histogram{}
	h.Observe(0)
	if h.Quantile(1.0) != 0 {
		t.Fatal("all-zero histogram quantile should be 0")
	}
}

func TestSetHist(t *testing.T) {
	s := New()
	s.Hist("x").Observe(5)
	s.Hist("x").Observe(7)
	if s.Hist("x").count != 2 {
		t.Fatal("histogram not shared by name")
	}
	if s.Hist("y").count != 0 {
		t.Fatal("fresh histogram not empty")
	}
}
