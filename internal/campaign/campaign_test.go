package campaign

import (
	"strings"
	"testing"
)

// TestKillCampaign is the headline robustness claim: seeded cases of
// daemon kill -9 (torn journal tails included) and injected worker
// crashes over the compacting file journal asapd runs, every one
// converging with zero lost jobs, zero double completions, and
// artifacts byte-identical to serial runs of the same specs.
func TestKillCampaign(t *testing.T) {
	cases := 200
	if testing.Short() {
		cases = 40
	}
	sum, err := Kill(Config{Cases: cases, Seed: 20260808, Dir: t.TempDir()})
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}
	for i, f := range sum.Failures {
		if i >= 20 {
			t.Errorf("... and %d more failures", len(sum.Failures)-i)
			break
		}
		t.Error(f)
	}
	if err := sum.Verdict(); err != nil {
		t.Fatalf("verdict: %v", err)
	}
	k := sum.Kill
	if k.Lost != 0 || k.Doubled != 0 || k.Mismatched != 0 {
		t.Fatalf("lost=%d doubled=%d mismatched=%d", k.Lost, k.Doubled, k.Mismatched)
	}
	if k.TornTails == 0 {
		t.Fatal("no kill tore a journal append; the trip never lands mid-record")
	}
	if !testing.Short() && k.CompactionKills == 0 {
		t.Fatal("no kill landed inside a journal compaction")
	}
	if k.WorkerPanics == 0 {
		t.Fatal("zero worker panics; the seed schedule is broken")
	}
	if k.Redelivered == 0 {
		t.Fatal("zero redeliveries; crashes are not being recovered through the lease path")
	}
	t.Log(sum)
}

// TestKillCampaignControl is the negative control: the identical
// campaign with volatile daemons must observably lose jobs across a
// kill. A checker that cannot see this loss would also rubber-stamp a
// broken journal.
func TestKillCampaignControl(t *testing.T) {
	cases := 20
	if testing.Short() {
		cases = 8
	}
	sum, err := Kill(Config{Cases: cases, Seed: 20260808, Control: true, Dir: t.TempDir()})
	if err != nil {
		t.Fatalf("control campaign: %v", err)
	}
	if err := sum.Verdict(); err != nil {
		t.Fatalf("control verdict: %v (failures %v)", err, sum.Failures)
	}
	if sum.Kill.Lost == 0 {
		t.Fatal("control lost no jobs")
	}
	t.Log(sum)
}

// TestIOCampaign is a scaled-down version of the CI sweep: a full pass
// over the target × class matrix with protections on must find zero
// audit violations, and the faults must actually fire.
func TestIOCampaign(t *testing.T) {
	sum, err := IO(Config{Cases: 60, Seed: 7, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if err := sum.Verdict(); err != nil {
		t.Fatalf("verdict: %v\n%s", err, strings.Join(sum.Failures, "\n"))
	}
	for _, target := range ioTargets {
		if sum.IO.ByTarget[target] != 60/len(ioTargets) {
			t.Errorf("target %s scheduled %d cases, want %d", target, sum.IO.ByTarget[target], 60/len(ioTargets))
		}
		if sum.IO.InjectedByTarget[target] == 0 {
			t.Errorf("target %s never saw a fired fault", target)
		}
	}
	for _, class := range ioClasses {
		if sum.IO.ByClass[class] == 0 {
			t.Errorf("class %s never scheduled", class)
		}
	}
	if sum.IO.CleanRefusals == 0 {
		t.Error("no operation was ever refused; injected faults are being swallowed silently")
	}
	if sum.IO.Survivals == 0 {
		t.Error("no operation ever survived; the campaign setup is broken")
	}
}

// TestIOCampaignControl: with the journal's append rollback disabled,
// the same sweep must surface corruption.
func TestIOCampaignControl(t *testing.T) {
	sum, err := IO(Config{Cases: 60, Seed: 7, Control: true, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if err := sum.Verdict(); err != nil {
		t.Fatalf("control verdict: %v\n%s", err, strings.Join(sum.Failures, "\n"))
	}
}

// TestCampaignDeterminism: identical config, identical I/O verdict,
// down to the exact failure text.
func TestCampaignDeterminism(t *testing.T) {
	for _, control := range []bool{false, true} {
		a, err := IO(Config{Cases: 20, Seed: 99, Control: control, Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		b, err := IO(Config{Cases: 20, Seed: 99, Control: control, Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		if a.IO.Injected != b.IO.Injected || a.IO.CleanRefusals != b.IO.CleanRefusals ||
			a.IO.Survivals != b.IO.Survivals || strings.Join(a.Detected, "\n") != strings.Join(b.Detected, "\n") {
			t.Fatalf("control=%v: reruns diverged: %+v vs %+v", control, a, b)
		}
	}
}

// TestVerdict: a campaign passes only with zero failures and a fault
// exercised; a control passes only with its damage detected and no
// other failure.
func TestVerdict(t *testing.T) {
	for _, c := range []struct {
		name string
		sum  Summary
		pass bool
	}{
		{"kill", Summary{Kill: &KillStats{DaemonKills: 3}}, true},
		{"kill-no-kills", Summary{Kill: &KillStats{}}, false},
		{"io", Summary{IO: &IOStats{Injected: 1}}, true},
		{"io-nothing-fired", Summary{IO: &IOStats{}}, false},
		{"failure", Summary{Kill: &KillStats{DaemonKills: 3}, Failures: []string{"x"}}, false},
		{"control-detected", Summary{Control: true, IO: &IOStats{}, DetectedCases: 1}, true},
		{"control-blind", Summary{Control: true, IO: &IOStats{Injected: 5}}, false},
		{"control-other-failure", Summary{Control: true, Kill: &KillStats{}, DetectedCases: 1, Failures: []string{"x"}}, false},
	} {
		if err := c.sum.Verdict(); (err == nil) != c.pass {
			t.Errorf("%s: verdict %v, want pass=%v", c.name, err, c.pass)
		}
	}
}
