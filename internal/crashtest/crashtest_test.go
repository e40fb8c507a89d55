package crashtest

import (
	"context"
	"encoding/json"
	"errors"
	"io"
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
// That holds for the striped counter and for every Table 3 benchmark,
// each checked by its own Check over the recovered image.
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

	benches := []string{"BN", "BT", "CT", "EO", "HM", "Q", "RB", "SS", "TPCC"}
	cases, err := CrashCases(CrashConfig{Workloads: benches, Seed: 1, Points: 4, SkipValidation: true})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := Sweep(cases, SweepOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	caught := map[string]int{}
	for _, o := range sum.Outcomes {
		switch o.Verdict {
		case VerdictViolation:
			caught[o.Case.Workload]++
		case VerdictError:
			t.Errorf("%s: harness error: %s", o.Case, o.Detail)
		}
	}
	for _, b := range benches {
		if caught[b] == 0 {
			t.Errorf("%s: validation disabled yet zero violations: its Check is blind", b)
		}
	}
	t.Logf("violations per benchmark: %v", caught)
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
		Workload: "Q", CrashAt: 4_000, Seed: 7,
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
	shrunk := Shrink(o, 64)
	if shrunk == nil || len(shrunk.Replay) == 0 || len(shrunk.Replay) > len(o.Faults) {
		t.Fatalf("shrink returned %v from %d events", shrunk, len(o.Faults))
	}
	if v := RunCase(*shrunk).Verdict; v != VerdictViolation {
		t.Fatalf("shrunk fault set does not reproduce the violation: %s", v)
	}
	t.Logf("shrunk %d faults to %d: %v", len(o.Faults), len(shrunk.Replay), shrunk.Replay)
}

// TestSweepDeterministicCases: each generator's case list is a pure
// function of its config, so CI reruns sweep identical cases, and it
// rejects names it does not know.
func TestSweepDeterministicCases(t *testing.T) {
	for _, tc := range []struct {
		name    string
		cases   func() ([]Case, error)
		want    int
		unknown func() ([]Case, error)
	}{
		{
			name:    "crash",
			cases:   func() ([]Case, error) { return CrashCases(CrashConfig{Seed: 9, Points: 3}) },
			want:    len(Workloads()) * len(DefaultMixes()) * 3,
			unknown: func() ([]Case, error) { return CrashCases(CrashConfig{Workloads: []string{"nope"}}) },
		},
		{
			name:  "torture",
			cases: func() ([]Case, error) { return TortureCases(TortureConfig{Seed: 3, SeedsPerPreset: 2, CrashPoints: 1}) },
			// (clean + crash) per seed + controls
			want:    len(PresetNames())*2*(1+1) + 2,
			unknown: func() ([]Case, error) { return TortureCases(TortureConfig{Presets: []string{"nope"}}) },
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, err := tc.cases()
			if err != nil {
				t.Fatal(err)
			}
			b, _ := tc.cases()
			aj, _ := json.Marshal(a)
			bj, _ := json.Marshal(b)
			if string(aj) != string(bj) {
				t.Fatal("case list not deterministic")
			}
			if len(a) != tc.want {
				t.Fatalf("got %d cases, want %d", len(a), tc.want)
			}
			if _, err := tc.unknown(); err == nil {
				t.Fatal("generator accepted an unknown name")
			}
		})
	}
}

// TestEmptyCrashWindowRejected: a crash window that is empty once the
// defaults are applied is an error, not a silent fall back to the
// default upper bound below the requested lower one.
func TestEmptyCrashWindowRejected(t *testing.T) {
	if _, err := CrashCases(CrashConfig{CrashLo: 200_000}); err == nil {
		t.Error("CrashCases accepted crash-lo 200000 above the default crash-hi")
	}
	if _, err := CrashCases(CrashConfig{CrashLo: 5_000, CrashHi: 5_000}); err == nil {
		t.Error("CrashCases accepted crash-hi == crash-lo")
	}
	if _, err := TortureCases(TortureConfig{CrashLo: 200_000}); err == nil {
		t.Error("TortureCases accepted crash-lo 200000 above the default crash-hi")
	}
	if _, err := TortureCases(TortureConfig{CrashLo: 900, CrashHi: 800}); err == nil {
		t.Error("TortureCases accepted crash-hi below crash-lo")
	}
}

// TestNegativeCountsRejected: a negative count is an error, not a quiet
// fall back to the default; zero still means the default, and a negative
// crash-point or control count still means none.
func TestNegativeCountsRejected(t *testing.T) {
	if _, err := CrashCases(CrashConfig{Points: -3}); err == nil {
		t.Error("CrashCases accepted -3 points")
	}
	for _, cfg := range []TortureConfig{{SeedsPerPreset: -1}, {Threads: -1}, {Ops: -1}} {
		if _, err := TortureCases(cfg); err == nil {
			t.Errorf("TortureCases accepted %+v", cfg)
		}
	}
	if cases, err := CrashCases(CrashConfig{Workloads: []string{"counter"}, Mixes: []faults.Mix{{}}}); err != nil || len(cases) != 8 {
		t.Errorf("zero points: %d cases, %v; want the default 8", len(cases), err)
	}
	cases, err := TortureCases(TortureConfig{Presets: []string{"dep2"}, SeedsPerPreset: 1, CrashPoints: -1, NegativeControls: -1})
	if err != nil || len(cases) != 1 {
		t.Errorf("no crash points, no controls: %d cases, %v; want 1", len(cases), err)
	}
}

// TestSaveCrashRejectsTortureCases: only workload cases have a saveable
// crash state.
func TestSaveCrashRejectsTortureCases(t *testing.T) {
	if _, err := SaveCrash(Case{Preset: "dep2", CrashAt: 5000}, io.Discard); err == nil {
		t.Fatal("SaveCrash accepted a torture case")
	}
}

// TestSweepSmall runs a bounded sweep of each kind in-process and
// requires zero bad outcomes, exercising the runner fan-out path end to
// end; the torture sweep's negative controls must be caught and shrunk,
// proving the ddmin path.
func TestSweepSmall(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cases func() ([]Case, error)
		check func(t *testing.T, sum *Summary)
	}{
		{
			name: "crash",
			cases: func() ([]Case, error) {
				return CrashCases(CrashConfig{
					Workloads: []string{"counter", "Q"},
					Mixes:     []faults.Mix{{}, {TornPct: 0.3, DropPct: 0.2}},
					Seed:      3, Points: 3, CrashLo: 1_500, CrashHi: 40_000,
				})
			},
			check: func(t *testing.T, sum *Summary) {
				if sum.Total != 12 {
					t.Fatalf("total %d, want 12", sum.Total)
				}
			},
		},
		{
			name: "torture",
			cases: func() ([]Case, error) {
				return TortureCases(TortureConfig{
					Presets: []string{"baseline", "dep2", "squeeze"}, SeedsPerPreset: 1,
					Seed: 9, Threads: 3, Ops: 25, CrashPoints: 1,
					Mix:              faults.Mix{DropPct: 0.3, LHDropPct: 0.3},
					NegativeControls: 1,
				})
			},
			check: func(t *testing.T, sum *Summary) {
				if sum.ControlsCaught != 1 || sum.ControlsMissed != 0 {
					t.Fatalf("controls: caught %d missed %d, want 1/0", sum.ControlsCaught, sum.ControlsMissed)
				}
				for _, o := range sum.Outcomes {
					if o.Case.NegativeControl && (o.Shrunk == nil || len(o.Shrunk.Schedule) == 0) {
						t.Error("caught control was not shrunk")
					}
				}
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cases, err := tc.cases()
			if err != nil {
				t.Fatal(err)
			}
			sum, err := Sweep(cases, SweepOptions{ShrinkBudget: 120})
			if err != nil {
				t.Fatal(err)
			}
			if sum.Bad() != 0 {
				for _, o := range sum.Outcomes {
					if o.Bad() {
						t.Errorf("%s: %s: %s", o.Verdict, o.Case, o.Detail)
					}
				}
				t.Fatalf("%d bad outcomes (counts %v, controls missed %d)",
					sum.Bad(), sum.Counts, sum.ControlsMissed)
			}
			tc.check(t, sum)
			t.Logf("verdicts: %v", sum.Counts)
		})
	}
}

// TestUnknownWorkloadErrors keeps the CLI's error path honest.
func TestUnknownWorkloadErrors(t *testing.T) {
	o := RunCase(Case{Workload: "nope"})
	if o.Verdict != VerdictError {
		t.Fatalf("want error verdict, got %s", o.Verdict)
	}
	if _, err := CrashCases(CrashConfig{Workloads: []string{"nope"}}); err == nil {
		t.Fatal("CrashCases accepted an unknown workload")
	}
}

// TestOutcomeJSONRoundTrips: the CLI report is JSON; outcomes of either
// kind must encode and decode without loss of the verdict and fault
// events.
func TestOutcomeJSONRoundTrips(t *testing.T) {
	for _, tc := range []struct {
		name string
		c    Case
	}{
		{"crash", Case{
			Workload: "Q", CrashAt: 4_000, Seed: 7,
			Mix: faults.Mix{TornPct: 0.3, DropPct: 0.3},
		}},
		{"torture", Case{
			Preset: "lhwpq1", Seed: 3, Threads: 2, Ops: 10,
			CrashAt: 4_000, Mix: faults.Mix{LHDropPct: 1},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := RunCase(tc.c)
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
			if back.Case.String() != o.Case.String() {
				t.Fatalf("round trip changed the case: %s vs %s", back.Case, o.Case)
			}
		})
	}
}

// TestSweepCancelledReturnsPartialSummary exercises the SIGINT path:
// a pre-cancelled context must yield a (possibly empty) partial summary
// plus the context's error, never a nil summary — the CLI relies on this
// to flush its report before exiting 130.
func TestSweepCancelledReturnsPartialSummary(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cases func() ([]Case, error)
		all   int
	}{
		{
			name: "crash",
			cases: func() ([]Case, error) {
				return CrashCases(CrashConfig{Workloads: []string{"counter"}, Mixes: []faults.Mix{{}}, Seed: 3, Points: 4})
			},
			all: 4,
		},
		{
			name: "torture",
			cases: func() ([]Case, error) {
				return TortureCases(TortureConfig{Presets: []string{"dep2"}, SeedsPerPreset: 4, Seed: 5, Ops: 10})
			},
			all: 4*3 + 2, // (clean + 2 crash points) per seed, plus 2 controls
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cases, err := tc.cases()
			if err != nil {
				t.Fatal(err)
			}
			if len(cases) != tc.all {
				t.Fatalf("%d cases, want %d", len(cases), tc.all)
			}
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			sum, err := Sweep(cases, SweepOptions{Workers: 1, Context: ctx})
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
			if sum.Total >= tc.all {
				t.Fatalf("cancelled sweep still ran all %d cases", sum.Total)
			}
		})
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
		c := Case{Workload: "Q", CrashAt: 2_500 + uint64(i)*1_700, Seed: i, Mix: mix, SnapshotEvery: 1_000}
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

// TestPostRunStallIsAFinding: a post-recovery body that blocks forever
// stalls the rebooted machine; the kernel's StallError must come back
// as a finding instead of leaving the case clean.
func TestPostRunStallIsAFinding(t *testing.T) {
	sys, err := asap.NewSystem(asap.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	problem := runPost(sys, 1, func(c *Ctx) string {
		c.T.WaitUntil(func() bool { return false })
		return ""
	})
	if !strings.HasPrefix(problem, "post-recovery run stalled: ") {
		t.Fatalf("problem = %q, want a post-recovery stall", problem)
	}
}

// TestRebootOutsidePersistentWindowIsAViolation: an unvalidated recovery
// that applies a torn log record can write line 0x0. The reboot must
// report that image as a violation naming the line, not panic in the heap
// and surface as a harness error.
func TestRebootOutsidePersistentWindowIsAViolation(t *testing.T) {
	mix, err := faults.ParseMix("torn=0.2,drop=0.2,reorder=0.3,flip=1")
	if err != nil {
		t.Fatal(err)
	}
	c := Case{Workload: "BT", CrashAt: 28862, Seed: 2953788, Mix: mix, SkipValidation: true}
	o := RunCase(c)
	want := "reboot: asap: recovered line outside the persistent window: line 0x0"
	if o.Verdict != VerdictViolation || o.Detail != want {
		t.Fatalf("%s: got %s: %s, want violation: %s", c, o.Verdict, o.Detail, want)
	}
}
