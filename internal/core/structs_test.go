package core

import (
	"testing"
	"testing/quick"

	"asap/internal/arch"
	"asap/internal/cache"
)

func tinyCaches() cache.Config {
	return cache.Config{
		L1: cache.LevelConfig{Sets: 2, Ways: 2, Latency: 4},
		L2: cache.LevelConfig{Sets: 2, Ways: 2, Latency: 14},
		L3: cache.LevelConfig{Sets: 4, Ways: 2, Latency: 42},
	}
}

func TestBloomNoFalseNegatives(t *testing.T) {
	b := newBloom(8192)
	f := func(lines []uint32) bool {
		b.Clear()
		for _, l := range lines {
			b.Add(arch.LineAddr(uint64(l) * arch.LineSize))
		}
		for _, l := range lines {
			if !b.MayContain(arch.LineAddr(uint64(l) * arch.LineSize)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBloomClear(t *testing.T) {
	b := newBloom(1024)
	b.Add(64)
	if !b.MayContain(64) {
		t.Fatal("added line missing")
	}
	b.Clear()
	if b.MayContain(64) {
		t.Fatal("line survived Clear")
	}
}

func TestBloomFalsePositiveRateReasonable(t *testing.T) {
	b := newBloom(8192)
	for i := 0; i < 200; i++ {
		b.Add(arch.LineAddr(i * arch.LineSize))
	}
	fp := 0
	probes := 2000
	for i := 10_000; i < 10_000+probes; i++ {
		if b.MayContain(arch.LineAddr(i * arch.LineSize)) {
			fp++
		}
	}
	if fp > probes/5 {
		t.Fatalf("false positive rate too high: %d/%d", fp, probes)
	}
}

func TestDependenceListCapacity(t *testing.T) {
	l := NewDependenceList(2, 4)
	l.Add(arch.MakeRID(0, 1))
	l.Add(arch.MakeRID(0, 2))
	if l.HasSpace() {
		t.Fatal("full list reports space")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected overflow panic")
		}
	}()
	l.Add(arch.MakeRID(0, 3))
}

func TestDependenceListDepSlots(t *testing.T) {
	l := NewDependenceList(8, 2)
	e := l.Add(arch.MakeRID(0, 1))
	l.AddDep(e, arch.MakeRID(1, 1))
	l.AddDep(e, arch.MakeRID(2, 1))
	if l.CanAddDep(e, arch.MakeRID(3, 1)) {
		t.Fatal("full Dep slots report space")
	}
	if !l.CanAddDep(e, arch.MakeRID(1, 1)) {
		t.Fatal("existing dep must always be addable")
	}
	e.ClearDep(arch.MakeRID(1, 1))
	if !l.CanAddDep(e, arch.MakeRID(3, 1)) {
		t.Fatal("cleared slot not reusable")
	}
}

func TestDependenceListAddDepIdempotent(t *testing.T) {
	l := NewDependenceList(8, 2)
	e := l.Add(arch.MakeRID(0, 1))
	dep := arch.MakeRID(1, 1)
	l.AddDep(e, dep)
	l.AddDep(e, dep)
	if len(e.Deps) != 1 {
		t.Fatalf("deps = %d, want 1", len(e.Deps))
	}
}

func TestCLListSlots(t *testing.T) {
	l := NewCLList(4, 2)
	e := l.Add(arch.MakeRID(0, 1))
	l.AddSlot(e, 64)
	l.AddSlot(e, 128)
	if l.CanAddSlot(e, 192) {
		t.Fatal("full slots report space")
	}
	if !l.CanAddSlot(e, 64) {
		t.Fatal("existing line must be addable")
	}
	if s := l.AddSlot(e, 64); s != e.Slot(64) {
		t.Fatal("AddSlot must return existing slot")
	}
	e.removeSlot(64)
	if e.Slot(64) != nil {
		t.Fatal("slot not removed")
	}
	if !l.CanAddSlot(e, 192) {
		t.Fatal("freed slot not reusable")
	}
}

func TestCLListEntryLifecycle(t *testing.T) {
	l := NewCLList(1, 8)
	r := arch.MakeRID(0, 1)
	l.Add(r)
	if l.HasSpace() {
		t.Fatal("full CL list reports space")
	}
	l.Remove(r)
	if !l.HasSpace() {
		t.Fatal("removed entry did not free space")
	}
	l.Remove(r) // idempotent
}
