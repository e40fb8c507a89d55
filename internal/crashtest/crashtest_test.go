package crashtest

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"asap"
	"asap/internal/faults"
)

// TestNoFaultCasesAreClean: without injected faults every workload must
// recover to a state satisfying all invariants, at several crash points.
func TestNoFaultCasesAreClean(t *testing.T) {
	for _, w := range Workloads() {
		for _, at := range []uint64{1_200, 6_000, 30_000} {
			o := RunCase(Case{Workload: w, CrashAt: at, Seed: int64(at)})
			if o.Verdict != VerdictClean {
				t.Errorf("%s crash@%d: want clean, got %s: %s", w, at, o.Verdict, o.Detail)
			}
			if len(o.Faults) != 0 {
				t.Errorf("%s crash@%d: zero mix injected %d faults", w, at, len(o.Faults))
			}
		}
	}
}

// TestFaultyCasesNeverViolate is the checker's core claim: with validation
// on, every fault either gets repaired (recovered) or refused (detected) —
// never a silently broken image.
func TestFaultyCasesNeverViolate(t *testing.T) {
	mix := faults.Mix{TornPct: 0.2, DropPct: 0.2, ReorderPct: 0.3, BitFlips: 1}
	counts := map[Verdict]int{}
	for _, w := range Workloads() {
		for i := int64(0); i < 8; i++ {
			c := Case{Workload: w, CrashAt: 2_000 + uint64(i)*900, Seed: i, Mix: mix}
			o := RunCase(c)
			counts[o.Verdict]++
			if o.Verdict == VerdictViolation || o.Verdict == VerdictError {
				t.Errorf("%s: %s: %s (faults: %v)", c, o.Verdict, o.Detail, o.Faults)
			}
		}
	}
	t.Logf("verdicts: %v", counts)
	if counts[VerdictDetected] == 0 {
		t.Error("mix fired no detectable damage; the sweep exercises nothing")
	}
}

// TestBrokenRecoveryIsCaught is the negative control the acceptance
// criteria demand: disable the recovery validation pass and the checker
// must observe invariant violations — proof it can see real corruption.
func TestBrokenRecoveryIsCaught(t *testing.T) {
	mix := faults.Mix{TornPct: 0.6, DropPct: 0.3}
	violations := 0
	for i := int64(0); i < 10; i++ {
		o := RunCase(Case{
			Workload: "bigcounter", CrashAt: 2_500 + uint64(i)*700, Seed: 100 + i,
			Mix: mix, SkipValidation: true,
		})
		if o.Verdict == VerdictViolation {
			violations++
		}
		if o.Verdict == VerdictError {
			t.Errorf("seed %d: harness error: %s", 100+i, o.Detail)
		}
	}
	if violations == 0 {
		t.Fatal("validation disabled yet zero violations: the checker is blind")
	}
	t.Logf("%d/10 unvalidated recoveries caught violating invariants", violations)
}

// TestDroppedLogHeaderIsDetected is the LH-WPQ fault regression test: when
// the crash snapshot loses a resident log header (Mix.LHDropPct), recovery
// faces a live record slot with no usable header and must refuse with a
// missing-header corruption error — never report success, never violate.
// Drops that hit already-persisted (closing) headers are harmless and may
// still recover; the test demands at least one consequential drop.
func TestDroppedLogHeaderIsDetected(t *testing.T) {
	mix := faults.Mix{LHDropPct: 1.0}
	detected, fired := 0, 0
	sawMissingHeader := false
	for i := int64(0); i < 8; i++ {
		c := Case{Workload: "bigcounter", CrashAt: 1_500 + uint64(i)*1_100, Seed: 40 + i, Mix: mix}
		o := RunCase(c)
		if o.Verdict == VerdictViolation || o.Verdict == VerdictError {
			t.Errorf("%s: %s: %s (faults: %v)", c, o.Verdict, o.Detail, o.Faults)
		}
		headerDrops := 0
		for _, ev := range o.Faults {
			if ev.Class == faults.HeaderDrop {
				headerDrops++
			}
		}
		if headerDrops > 0 {
			fired++
		}
		if o.Verdict == VerdictDetected {
			detected++
			if headerDrops == 0 {
				t.Errorf("%s: detected without a header drop: %s", c, o.Detail)
			}
			if strings.Contains(o.Detail, "missing-header") {
				sawMissingHeader = true
			}
		}
	}
	if fired == 0 {
		t.Fatal("no crash point had a resident LH-WPQ header; the mix exercises nothing")
	}
	if detected == 0 {
		t.Fatal("dropped live log headers were never detected by recovery")
	}
	if !sawMissingHeader {
		t.Error("no detection was classified missing-header")
	}
	t.Logf("%d/8 cases dropped headers, %d detected", fired, detected)
}

// TestReplayReproducesOutcome: the same case with Replay of the recorded
// events must land on the same verdict — the property shrinking needs.
func TestReplayReproducesOutcome(t *testing.T) {
	c := Case{
		Workload: "queue", CrashAt: 4_000, Seed: 7,
		Mix: faults.Mix{TornPct: 0.3, DropPct: 0.3},
	}
	first := RunCase(c)
	if len(first.Faults) == 0 {
		t.Skip("no faults fired at this point; nothing to replay")
	}
	c.Replay = first.Faults
	second := RunCase(c)
	if second.Verdict != first.Verdict {
		t.Fatalf("replay verdict %s != original %s", second.Verdict, first.Verdict)
	}
}

// TestShrinkFindsMinimalFaultSet shrinks a known violation (under
// SkipValidation) and checks the reduced set still reproduces it.
func TestShrinkFindsMinimalFaultSet(t *testing.T) {
	c := Case{
		Workload: "bigcounter", CrashAt: 3_200, Seed: 101,
		Mix: faults.Mix{TornPct: 0.6, DropPct: 0.3}, SkipValidation: true,
	}
	o := RunCase(c)
	if o.Verdict != VerdictViolation {
		t.Skipf("case no longer violates (verdict %s); pick another seed", o.Verdict)
	}
	shrunk := Shrink(c, o.Faults, 64)
	if len(shrunk) == 0 || len(shrunk) > len(o.Faults) {
		t.Fatalf("shrink returned %d events from %d", len(shrunk), len(o.Faults))
	}
	c.Replay = shrunk
	if v := RunCase(c).Verdict; v != VerdictViolation {
		t.Fatalf("shrunk fault set does not reproduce the violation: %s", v)
	}
	t.Logf("shrunk %d faults to %d: %v", len(o.Faults), len(shrunk), shrunk)
}

// TestSweepDeterministicCases: the case list is a pure function of the
// config, so CI reruns sweep identical cases.
func TestSweepDeterministicCases(t *testing.T) {
	cfg := SweepConfig{Seed: 9, Points: 3}
	a, err := cfg.Cases()
	if err != nil {
		t.Fatal(err)
	}
	b, _ := cfg.Cases()
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if string(aj) != string(bj) {
		t.Fatal("case list not deterministic")
	}
	want := len(Workloads()) * len(DefaultMixes()) * 3
	if len(a) != want {
		t.Fatalf("got %d cases, want %d", len(a), want)
	}
}

// TestSweepSmall runs a bounded sweep in-process and requires zero bad
// outcomes, exercising the runner fan-out path end to end.
func TestSweepSmall(t *testing.T) {
	sum, err := Sweep(SweepConfig{
		Workloads: []string{"counter", "queue"},
		Mixes:     []faults.Mix{{}, {TornPct: 0.3, DropPct: 0.2}},
		Seed:      3, Points: 3, CrashLo: 1_500, CrashHi: 40_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Total != 12 {
		t.Fatalf("total %d, want 12", sum.Total)
	}
	if sum.Bad() != 0 {
		for _, v := range sum.Violations() {
			t.Errorf("violation: %s: %s", v.Case, v.Detail)
		}
		t.Fatalf("%d bad outcomes", sum.Bad())
	}
	t.Logf("verdicts: %v", sum.Counts)
}

// TestUnknownWorkloadErrors keeps the CLI's error path honest.
func TestUnknownWorkloadErrors(t *testing.T) {
	o := RunCase(Case{Workload: "nope"})
	if o.Verdict != VerdictError {
		t.Fatalf("want error verdict, got %s", o.Verdict)
	}
	if _, err := (SweepConfig{Workloads: []string{"nope"}}).Cases(); err == nil {
		t.Fatal("Cases accepted an unknown workload")
	}
}

// TestOutcomeJSONRoundTrips: the CLI report is JSON; outcomes must encode
// and decode without loss of the verdict and fault events.
func TestOutcomeJSONRoundTrips(t *testing.T) {
	o := RunCase(Case{
		Workload: "queue", CrashAt: 4_000, Seed: 7,
		Mix: faults.Mix{TornPct: 0.3, DropPct: 0.3},
	})
	blob, err := json.Marshal(o)
	if err != nil {
		t.Fatal(err)
	}
	var back Outcome
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.Verdict != o.Verdict || len(back.Faults) != len(o.Faults) {
		t.Fatalf("round trip lost data: %+v vs %+v", back, o)
	}
}

// TestSweepCancelledReturnsPartialSummary exercises the SIGINT path:
// a pre-cancelled context must yield a (possibly empty) partial summary
// plus the context's error, never a nil summary.
func TestSweepCancelledReturnsPartialSummary(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sum, err := Sweep(SweepConfig{
		Workloads: []string{"counter"},
		Mixes:     []faults.Mix{{}},
		Seed:      3, Points: 4,
		Workers: 1,
		Context: ctx,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if sum == nil {
		t.Fatal("cancelled sweep returned nil summary")
	}
	if sum.Total != len(sum.Outcomes) {
		t.Fatalf("Total %d != %d outcomes", sum.Total, len(sum.Outcomes))
	}
	// Only ran cases appear; skipped zero-value outcomes are filtered.
	for _, o := range sum.Outcomes {
		if o.Verdict == "" {
			t.Fatal("zero-value outcome leaked into partial summary")
		}
	}
	if sum.Total >= 4 {
		t.Fatalf("cancelled sweep still ran all %d cases", sum.Total)
	}
}

// TestSnapshotBoundaryKillsAreConsistent is the boundary-kill family:
// crashes landing exactly on checkpoint boundaries (the instant a
// checkpointer publishes a snapshot) must be as recoverable as any other
// instant — clean without faults, never a violation with them.
func TestSnapshotBoundaryKillsAreConsistent(t *testing.T) {
	for _, w := range Workloads() {
		o := RunCase(Case{Workload: w, CrashAt: 3_000, Seed: 11, SnapshotEvery: 2_000})
		if o.Verdict != VerdictClean {
			t.Errorf("%s boundary kill without faults: want clean, got %s: %s", w, o.Verdict, o.Detail)
		}
	}
	mix := faults.Mix{TornPct: 0.2, DropPct: 0.2, BitFlips: 1}
	for i := int64(0); i < 4; i++ {
		c := Case{Workload: "queue", CrashAt: 2_500 + uint64(i)*1_700, Seed: i, Mix: mix, SnapshotEvery: 1_000}
		o := RunCase(c)
		if o.Verdict == VerdictViolation || o.Verdict == VerdictError {
			t.Errorf("%s: %s: %s (faults: %v)", c, o.Verdict, o.Detail, o.Faults)
		}
	}
}

// TestPostRunPanicIsAFinding: a panic in the rebooted machine's thread
// reaches runPost through the kernel's Run and comes back as a finding,
// not a crash of the checker.
func TestPostRunPanicIsAFinding(t *testing.T) {
	sys, err := asap.NewSystem(asap.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	problem := runPost(sys, 1, func(c *Ctx) string { panic("boom") })
	if want := "post-recovery run panicked: boom"; problem != want {
		t.Fatalf("problem = %q, want %q", problem, want)
	}
}
