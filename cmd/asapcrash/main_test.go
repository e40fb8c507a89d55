package main

import (
	"bytes"
	"strings"
	"testing"
)

// runCLI runs the command in-process with the rotating fuzz seed unset,
// so the torture subcommand's default seed is the documented 1.
func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	t.Setenv("ASAP_FUZZ_SEED", "")
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestCrashSweepExitsZero: a small crash-consistency sweep passes.
func TestCrashSweepExitsZero(t *testing.T) {
	code, out, errs := runCLI(t, "-points", "2", "-workloads", "counter,queue")
	if code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, out, errs)
	}
	for _, want := range []string{"asapcrash: 28 cases (seed 1)", "OK: zero invariant violations"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}

// TestNegativeControlExitsOne is CI's negative control: recovery with
// validation disabled must be caught violating invariants.
func TestNegativeControlExitsOne(t *testing.T) {
	code, out, errs := runCLI(t, "-seed", "1", "-points", "6", "-workloads", "bigcounter",
		"-mixes", "torn=0.6,drop=0.3", "-skip-validation")
	if code != 1 {
		t.Fatalf("exit %d, want 1\nstdout: %s\nstderr: %s", code, out, errs)
	}
	if !strings.Contains(out, "FAIL: 4 violation/error case(s)") {
		t.Errorf("output lacks the failure line:\n%s", out)
	}
}

// TestTortureSweepCatchesControls: the torture subcommand passes on dep2
// and its two seeded negative controls are caught.
func TestTortureSweepCatchesControls(t *testing.T) {
	code, out, errs := runCLI(t, "torture", "-seeds", "1", "-configs", "dep2")
	if code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, out, errs)
	}
	for _, want := range []string{
		"seed 1 (override with -seed or ASAP_FUZZ_SEED)",
		"controls: 2 caught, 0 missed",
		"OK: zero invariant violations, zero undiagnosed stalls",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}

// TestUsageErrorsExitTwo: unknown names and malformed inputs are usage
// errors, reported before any case runs.
func TestUsageErrorsExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{"fuzz"},
		{"-workloads", "nope"},
		{"torture", "-configs", "nope"},
		{"-mixes", "torn=lots"},
		{"-crash-lo", "200000"},
		{"-no-such-flag"},
	} {
		if code, out, errs := runCLI(t, args...); code != 2 {
			t.Errorf("%v: exit %d, want 2\nstdout: %s\nstderr: %s", args, code, out, errs)
		}
	}
}
