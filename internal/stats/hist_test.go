package stats

import (
	"math/bits"
	"testing"
)

// oldLeadingZeros64 is the hand-rolled shift loop histIndex used before
// switching to math/bits.LeadingZeros64, kept as the cross-check
// reference. Like the original, it must only be called with v >= 1 (it
// never terminates on zero — one reason it was replaced).
func oldLeadingZeros64(v uint64) int {
	n := 0
	for v&(1<<63) == 0 {
		v <<= 1
		n++
	}
	return n
}

// histIndexSweep is the value set the cross-check tests walk: the dense
// low range plus every power-of-two boundary and its neighbours.
func histIndexSweep() []uint64 {
	vals := []uint64{}
	for v := uint64(1); v <= 4096; v++ {
		vals = append(vals, v)
	}
	for shift := uint(12); shift < 64; shift++ {
		p := uint64(1) << shift
		vals = append(vals, p-1, p, p+1)
	}
	return append(vals, ^uint64(0))
}

// TestLeadingZerosMatchesHandRolled cross-checks the math/bits
// replacement against the original loop across the sweep.
func TestLeadingZerosMatchesHandRolled(t *testing.T) {
	for _, v := range histIndexSweep() {
		if got, want := bits.LeadingZeros64(v), oldLeadingZeros64(v); got != want {
			t.Fatalf("LeadingZeros64(%#x) = %d, hand-rolled = %d", v, got, want)
		}
	}
}

// TestHistIndexMatchesHandRolled re-derives the bucket index with the old
// octave computation and compares against histIndex over the sweep.
func TestHistIndexMatchesHandRolled(t *testing.T) {
	oldIndex := func(v uint64) int {
		if v < histSub {
			return int(v)
		}
		octave := 63 - oldLeadingZeros64(v)
		sub := int(v>>(uint(octave)-3)) & (histSub - 1)
		return octave*histSub + sub
	}
	for _, v := range histIndexSweep() {
		if got, want := histIndex(v), oldIndex(v); got != want {
			t.Fatalf("histIndex(%#x) = %d, hand-rolled = %d", v, got, want)
		}
	}
}

// TestHistUpperBoundsValue: every value falls at or below its bucket's
// upper bound, and the bound is within the advertised ~12% resolution.
func TestHistUpperBoundsValue(t *testing.T) {
	for _, v := range histIndexSweep() {
		u := histUpper(histIndex(v))
		if u < v {
			t.Fatalf("histUpper(histIndex(%d)) = %d < value", v, u)
		}
		if v < histSub {
			if u != v {
				t.Fatalf("sub-octave value %d not exact: upper %d", v, u)
			}
			continue
		}
		// Bucket width is 2^(octave-3) <= v/8, so the bound overshoots by
		// less than 12.5%. (Compare the difference: v+v/8 overflows at the
		// top of the range.)
		if u-v > v/8 {
			t.Fatalf("histUpper(histIndex(%d)) = %d overshoots resolution", v, u)
		}
	}
}

// TestQuantileSingleObservation: with one sample every quantile returns
// that sample's bucket bound.
func TestQuantileSingleObservation(t *testing.T) {
	h := &Histogram{}
	h.Observe(42)
	for _, q := range []float64{0.01, 0.5, 0.99, 1.0} {
		got := h.Quantile(q)
		if got < 42 || got > 47 {
			t.Fatalf("Quantile(%g) = %d, want 42's bucket bound", q, got)
		}
	}
}

// TestQuantileExactBelowOctave: values under histSub live in exact
// single-value buckets, so q=1.0 returns them unrounded.
func TestQuantileExactBelowOctave(t *testing.T) {
	for v := uint64(0); v < histSub; v++ {
		h := &Histogram{}
		h.Observe(v)
		if got := h.Quantile(1.0); got != v {
			t.Fatalf("Quantile(1.0) = %d, want exact %d", got, v)
		}
	}
}

// TestQuantileFull: q=1.0 over 1..100 returns the top bucket's bound —
// at least the max, within resolution of it.
func TestQuantileFull(t *testing.T) {
	h := &Histogram{}
	for v := uint64(1); v <= 100; v++ {
		h.Observe(v)
	}
	got := h.Quantile(1.0)
	if got < 100 || got > 112 {
		t.Fatalf("Quantile(1.0) = %d, want max's bucket bound", got)
	}
	if min := h.Quantile(0.001); min != 1 {
		t.Fatalf("Quantile(0.001) = %d, want first observation", min)
	}
}

// TestQuantileEmptyIsZero: no observations means no estimate.
func TestQuantileEmptyIsZero(t *testing.T) {
	h := &Histogram{}
	for _, q := range []float64{0.5, 1.0} {
		if got := h.Quantile(q); got != 0 {
			t.Fatalf("empty Quantile(%g) = %d", q, got)
		}
	}
}

// TestSetHistReuse: Hist returns the same histogram for the same name —
// callers can re-fetch by name instead of holding the pointer.
func TestSetHistReuse(t *testing.T) {
	s := New()
	h1 := s.Hist("lat")
	h1.Observe(10)
	h2 := s.Hist("lat")
	if h1 != h2 {
		t.Fatal("Hist returned a different histogram for the same name")
	}
	if h2.count != 1 {
		t.Fatalf("count = %d through re-fetched handle", h2.count)
	}
}
