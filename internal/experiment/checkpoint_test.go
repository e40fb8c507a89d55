package experiment

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"asap/internal/snapshot"
)

// smallScale keeps checkpoint tests fast while still crossing many
// thousands of cycles (enough for several boundaries).
func smallScale() Scale {
	return Scale{Threads: 2, OpsPerThread: 40, InitialItems: 32}
}

// TestCheckpointingIsOutputNeutral is the boundary-neutrality guarantee:
// a run with audit checkpoints enabled produces a byte-identical Result to
// the same run without them. Boundary events advance the kernel clock to
// the boundary but change no scheduling decision. Custom cells (fences on
// a narrowed memory system, co-running benchmarks) are audited too, and
// their tables must not move either.
func TestCheckpointingIsOutputNeutral(t *testing.T) {
	for _, scheme := range []string{"ASAP", "SW", "HWUndo"} {
		v := Variant{Scheme: scheme}
		plain := Run(v, "HM", smallScale(), 64)
		checked, _ := RunCheckpointed(v, "HM", smallScale(), 64, 5000)
		if !reflect.DeepEqual(plain, checked) {
			t.Errorf("%s: checkpointing changed the result:\nplain:   %+v\nchecked: %+v", scheme, plain, checked)
		}
	}
	for name, table := range map[string]func(Sweep) *Table{"fences": Sweep.FenceSweep, "corun": Sweep.CoRunning} {
		plain := table(Sweep{Scale: smallScale()})
		checked := table(Sweep{Scale: smallScale(), CheckpointEvery: 20000})
		if !reflect.DeepEqual(plain, checked) {
			t.Errorf("%s: checkpointing changed the table:\nplain:\n%s\nchecked:\n%s", name, plain, checked)
		}
	}
}

// TestResumeMatchesStraightThrough is the resume equivalence guarantee,
// randomized over seeds: take checkpoints during a run, then resume from a
// middle checkpoint — the digest must verify at the boundary and the final
// Result must be bit-identical to the straight-through run.
func TestResumeMatchesStraightThrough(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const every = 5000
	for _, tc := range []struct {
		scheme, bench string
	}{
		{"ASAP", "HM"},
		{"ASAP", "Q"},
		{"SW", "BT"},
		{"HWRedo", "HM"},
	} {
		seed := rng.Int63n(1 << 30)
		v := Variant{Scheme: tc.scheme, Seed: seed}
		straight, snaps := RunCheckpointed(v, tc.bench, smallScale(), 64, every)
		if len(snaps) == 0 {
			t.Fatalf("%s/%s seed=%d: no checkpoints taken (run too short for every=%d?)", tc.scheme, tc.bench, seed, every)
		}
		from := snaps[len(snaps)/2]
		if from.Cycle == 0 || from.Cycle%every != 0 {
			t.Fatalf("%s/%s: checkpoint at cycle %d not on an every=%d boundary", tc.scheme, tc.bench, from.Cycle, every)
		}
		resumed, err := RunResumed(v, tc.bench, smallScale(), 64, every, from)
		if err != nil {
			t.Fatalf("%s/%s seed=%d: resume from cycle %d: %v", tc.scheme, tc.bench, seed, from.Cycle, err)
		}
		if !reflect.DeepEqual(straight, resumed) {
			t.Errorf("%s/%s seed=%d: resumed result diverged:\nstraight: %+v\nresumed:  %+v",
				tc.scheme, tc.bench, seed, straight, resumed)
		}
	}
}

// TestResumeDetectsTamperedSnapshot is the negative control: a snapshot
// with one flipped section digest must be rejected at the boundary with
// the diverging section named, never silently accepted.
func TestResumeDetectsTamperedSnapshot(t *testing.T) {
	v := Variant{Scheme: "ASAP", Seed: 7}
	const every = 5000
	_, snaps := RunCheckpointed(v, "HM", smallScale(), 64, every)
	if len(snaps) == 0 {
		t.Fatal("no checkpoints taken")
	}
	from := snaps[len(snaps)/2]
	tampered := from
	tampered.Sections = append([]snapshot.Section(nil), from.Sections...)
	for i, sec := range tampered.Sections {
		if sec.Name == "cache" {
			// Flip a hex digit of the cache section's digest.
			b := []byte(sec.SHA256)
			if b[0] == 'f' {
				b[0] = '0'
			} else {
				b[0] = 'f'
			}
			tampered.Sections[i].SHA256 = string(b)
		}
	}
	_, err := RunResumed(v, "HM", smallScale(), 64, every, tampered)
	var re *ResumeError
	if !errors.As(err, &re) {
		t.Fatalf("tampered snapshot accepted (err = %v)", err)
	}
	found := false
	for _, d := range re.Diffs {
		if strings.HasPrefix(d, `section "cache"`) {
			found = true
		}
	}
	if !found {
		t.Errorf("diff does not name the tampered section: %v", re.Diffs)
	}
}

// TestResumeRejectsOffBoundaryCycle covers the schedule-mismatch guard.
func TestResumeRejectsOffBoundaryCycle(t *testing.T) {
	if _, err := RunResumed(Variant{Scheme: "NP"}, "HM", smallScale(), 64, 5000, snapshot.Snap{Cycle: 5001}); err == nil {
		t.Fatal("off-boundary cycle accepted")
	}
	if _, err := RunResumed(Variant{Scheme: "NP"}, "HM", smallScale(), 64, 0, snapshot.Snap{Cycle: 5000}); err == nil {
		t.Fatal("every=0 accepted")
	}
}
