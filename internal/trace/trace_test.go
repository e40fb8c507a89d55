package trace

import (
	"strings"
	"testing"

	"asap/internal/arch"
)

func TestRingRetainsMostRecent(t *testing.T) {
	b := NewBuffer(4)
	for i := 0; i < 10; i++ {
		b.Emit(Event{At: uint64(i), Kind: LPOIssue})
	}
	evs := b.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d, want 4", len(evs))
	}
	for i, e := range evs {
		if e.At != uint64(6+i) {
			t.Fatalf("event %d at %d, want %d (oldest-first)", i, e.At, 6+i)
		}
	}
}

func TestKindStrings(t *testing.T) {
	for k := RegionBegin; k <= LogOverflow; k++ {
		if strings.HasPrefix(k.String(), "kind(") {
			t.Fatalf("kind %d has no name", k)
		}
	}
	if Kind(200).String() != "kind(200)" {
		t.Fatal("unknown kind should fall back")
	}
}

func TestEventString(t *testing.T) {
	e := Event{At: 42, Kind: LPOAccept, RID: arch.MakeRID(1, 3), Line: 128, Aux: 7}
	s := e.String()
	for _, want := range []string{"42", "lpo.accept", "T1.R3", "0x80", "0x7"} {
		if !strings.Contains(s, want) {
			t.Fatalf("event string %q missing %q", s, want)
		}
	}
}

func TestZeroCapacityDefaults(t *testing.T) {
	b := NewBuffer(0)
	b.Emit(Event{At: 1})
	if len(b.Events()) != 1 {
		t.Fatal("default-capacity buffer unusable")
	}
}
