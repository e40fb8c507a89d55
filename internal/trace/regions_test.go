package trace

import (
	"testing"

	"asap/internal/arch"
)

// TestEventsOldestFirstAcrossWrap: after the ring wraps, Events still
// returns the retained window oldest-first.
func TestEventsOldestFirstAcrossWrap(t *testing.T) {
	r := arch.MakeRID(0, 1)
	b := NewBuffer(4)
	for at := uint64(1); at <= 6; at++ {
		b.Emit(Event{At: at, Kind: LPOIssue, RID: r})
	}
	got := b.Events()
	if len(got) != 4 {
		t.Fatalf("retained %d of 6, want 4", len(got))
	}
	for i, e := range got {
		if e.At != uint64(3+i) {
			t.Fatalf("Events()[%d].At = %d, want %d (oldest-first)", i, e.At, 3+i)
		}
	}
}
