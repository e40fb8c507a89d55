package crashtest

import (
	"encoding/json"
	"testing"

	"asap/internal/faults"
)

// TestTortureCleanCaseEveryPreset: a drain-to-completion schedule must
// come back clean on every exhaustion configuration with the invariant
// engine attached — the squeezed structures may stall and spill, but
// never break the protocol.
func TestTortureCleanCaseEveryPreset(t *testing.T) {
	for _, p := range Presets() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			o := RunCase(Case{Preset: p.Name, Seed: 11, Threads: 3, Ops: 25, Stride: 1})
			if o.Verdict != VerdictClean {
				t.Fatalf("%s: want clean, got %s: %s\nviolations: %v\nstall: %s",
					p.Name, o.Verdict, o.Detail, o.Violations, o.Stall)
			}
			if o.Checks == 0 {
				t.Fatal("invariant engine never ran a pass")
			}
			if o.Regions == 0 {
				t.Fatal("schedule committed no regions")
			}
		})
	}
}

// TestTortureNegativeControlCaughtAndShrunk is the acceptance criterion: the
// seeded commit-rule weakening under a 2-entry Dependence List must be
// caught as a violation, and ddmin must shrink the schedule to a smaller
// reproducer that still violates on replay.
func TestTortureNegativeControlCaughtAndShrunk(t *testing.T) {
	c := Case{Preset: "dep2", Seed: 5, Threads: 3, Ops: 12, NegativeControl: true}
	o := RunCase(c)
	if o.Verdict != VerdictViolation {
		t.Fatalf("negative control not caught: verdict %s (%s)", o.Verdict, o.Detail)
	}
	full := c.schedule()
	shrunk := Shrink(o, 200)
	if shrunk == nil || len(shrunk.Schedule) == 0 || len(shrunk.Schedule) >= len(full) {
		t.Fatalf("shrink returned %v from %d ops", shrunk, len(full))
	}
	if v := RunCase(*shrunk).Verdict; v != VerdictViolation {
		t.Fatalf("shrunk schedule does not reproduce the violation: %s", v)
	}
	t.Logf("shrunk %d ops to %d: %v", len(full), len(shrunk.Schedule), shrunk.Schedule)
}

// TestTortureCrashCasesNeverViolate: crashes at arbitrary points under the full
// fault mixture (including LH-WPQ header drops) on squeezed machines must
// always land on recovered/detected/clean — never a silently broken image.
func TestTortureCrashCasesNeverViolate(t *testing.T) {
	mix := faults.Mix{TornPct: 0.2, DropPct: 0.2, ReorderPct: 0.3, LHDropPct: 0.3, BitFlips: 1}
	counts := map[Verdict]int{}
	for i, preset := range []string{"baseline", "dep2", "lhwpq1", "squeeze"} {
		for _, at := range []uint64{1_000, 9_000, 60_000} {
			c := Case{
				Preset: preset, Seed: int64(100*i) + int64(at), Threads: 3, Ops: 40,
				CrashAt: at, Mix: mix,
			}
			o := RunCase(c)
			counts[o.Verdict]++
			if o.Verdict == VerdictViolation || o.Verdict == VerdictError || o.Verdict == VerdictStall {
				t.Errorf("%s: %s: %s\nviolations: %v", c, o.Verdict, o.Detail, o.Violations)
			}
		}
	}
	t.Logf("verdicts: %v", counts)
	if counts[VerdictDetected] == 0 && counts[VerdictRecovered] == 0 {
		t.Error("no crash case exercised the fault path")
	}
}

// TestTortureScheduleDeterministic: the same seed always generates the same
// schedule, and different seeds differ — replay depends on this.
func TestTortureScheduleDeterministic(t *testing.T) {
	a, b := Generate(7, 3, 20), Generate(7, 3, 20)
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if string(aj) != string(bj) {
		t.Fatal("same seed generated different schedules")
	}
	cj, _ := json.Marshal(Generate(8, 3, 20))
	if string(aj) == string(cj) {
		t.Fatal("different seeds generated identical schedules")
	}
	if len(a) != 60 {
		t.Fatalf("schedule length %d, want 60", len(a))
	}
}

// TestTortureUnknownPresetErrors keeps the CLI's error path honest.
func TestTortureUnknownPresetErrors(t *testing.T) {
	if o := RunCase(Case{Preset: "nope", Threads: 1, Ops: 1}); o.Verdict != VerdictError {
		t.Fatalf("want error verdict, got %s", o.Verdict)
	}
}
