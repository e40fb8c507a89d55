package main

import (
	"bytes"
	"os"
	"path/filepath"
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
	code, out, errs := runCLI(t, "-points", "2", "-workloads", "counter,Q")
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
		{"-points", "-3"},
		{"torture", "-seeds", "-1"},
		{"torture", "-threads", "-1"},
		{"torture", "-ops", "-1"},
	} {
		if code, out, errs := runCLI(t, args...); code != 2 {
			t.Errorf("%v: exit %d, want 2\nstdout: %s\nstderr: %s", args, code, out, errs)
		}
	}
}

// TestBadFlagsExitTwo: misuse of -save and the recover subcommand (a bad
// mix, a selection of more than one case, a missing or extra FILE, an
// unknown flag) is a usage error, and no crash state is written.
func TestBadFlagsExitTwo(t *testing.T) {
	path := filepath.Join(t.TempDir(), "crash.bin")
	for _, args := range [][]string{
		append(oneCase("nonsense"), "-save", path),
		append(oneCase("none"), "-no-such-flag", "-save", path),
		{"-points", "2", "-save", path},
		{"recover"},
		{"recover", "a", "b"},
		{"recover", "-no-such-flag", "a"},
	} {
		if code, out, errs := runCLI(t, args...); code != 2 {
			t.Errorf("%v: exit %d, want 2\nstdout: %s\nstderr: %s", args, code, out, errs)
		}
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("usage error left a crash state at %s (stat: %v)", path, err)
	}
}

// oneCase selects the single crash case the recover tests share: the
// counter workload, power failure at cycle 8000, under mix.
func oneCase(mix string) []string {
	return []string{"-workloads", "counter", "-points", "1", "-crash-lo", "8000", "-crash-hi", "8001", "-mixes", mix}
}

// saveAndRecover saves the case's crash state with -save, then recovers
// it with a separate "recover" call, returning that call's result.
func saveAndRecover(t *testing.T, mix string) (code int, stdout string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "crash.bin")
	if code, out, errs := runCLI(t, append(oneCase(mix), "-save", path)...); code != 0 {
		t.Fatalf("save: exit %d\nstdout: %s\nstderr: %s", code, out, errs)
	}
	code, stdout, errs := runCLI(t, "recover", path)
	if code != 0 && code != 3 {
		t.Fatalf("recover: exit %d\nstdout: %s\nstderr: %s", code, stdout, errs)
	}
	return code, stdout
}

// TestCleanCaseExitsZero: without faults the one case comes back clean.
func TestCleanCaseExitsZero(t *testing.T) {
	code, out, errs := runCLI(t, oneCase("none")...)
	if code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, out, errs)
	}
	if !strings.Contains(out, "asapcrash: 1 cases") || !strings.Contains(out, "clean      1") {
		t.Fatalf("want one clean case:\n%s", out)
	}
}

// TestCorruptImageClassifiedExitsThree: with undo material destroyed at
// the crash flush, recovery of the saved state must refuse, print the
// structured classification (class, severity, damaged line) and exit 3.
func TestCorruptImageClassifiedExitsThree(t *testing.T) {
	code, out := saveAndRecover(t, "drop=1,lhdrop=1")
	if code != 3 {
		t.Fatalf("exit %d, want 3\n%s", code, out)
	}
	for _, want := range []string{"recovery refused", "missing-header", "fatal", "line 0x"} {
		if !strings.Contains(out, want) {
			t.Errorf("classification lacks %q:\n%s", want, out)
		}
	}
}

// TestSaveRecoverRoundTrip: a saved state recovers in a separate call:
// the clean one succeeds, the faulted one is refused.
func TestSaveRecoverRoundTrip(t *testing.T) {
	if code, out := saveAndRecover(t, "none"); code != 0 || !strings.Contains(out, "recovered:") {
		t.Errorf("clean: exit %d, want 0\n%s", code, out)
	}
	if code, out := saveAndRecover(t, "drop=1,lhdrop=1"); code != 3 {
		t.Errorf("faulted: exit %d, want 3\n%s", code, out)
	}
}

// TestSaveRecoverMatchesSweep: recovering a saved state in a separate
// call reaches the in-process sweep's verdict for the same case, with the
// same first finding.
func TestSaveRecoverMatchesSweep(t *testing.T) {
	code, sweep, errs := runCLI(t, append(oneCase("drop=1,lhdrop=1"), "-v")...)
	if code != 0 || !strings.Contains(sweep, "detected   1") {
		t.Fatalf("sweep: exit %d, want one detected case\nstdout: %s\nstderr: %s", code, sweep, errs)
	}
	code, out := saveAndRecover(t, "drop=1,lhdrop=1")
	if code != 3 {
		t.Fatalf("recover: exit %d, want 3 (detected)\n%s", code, out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < 2 {
		t.Fatalf("recover printed no finding:\n%s", out)
	}
	first := strings.TrimSpace(lines[1])
	if !strings.Contains(sweep, first) {
		t.Errorf("sweep's first finding differs from %q:\n%s", first, sweep)
	}
}

// TestSweepCountsMatchGateFiles pins the sweeps' full reports at their
// documented seeds: same case counts, same verdicts, byte for byte. A
// change that moves a count must regenerate the file and say why.
func TestSweepCountsMatchGateFiles(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweeps; skipped in -short mode")
	}
	for _, g := range []struct {
		file string
		args []string
	}{
		{"../../docs/crash-sweep-seed1.txt", []string{"-seed", "1", "-points", "28"}},
		{"../../docs/crash-sweep-bench-seed1.txt", []string{"-seed", "1", "-points", "28", "-workloads", "BN,BT,CT,EO,HM,Q,RB,SS,TPCC"}},
		{"../../docs/torture-sweep-seed1.txt", []string{"torture", "-seed", "1", "-seeds", "19"}},
	} {
		want, err := os.ReadFile(g.file)
		if err != nil {
			t.Fatal(err)
		}
		code, out, errs := runCLI(t, g.args...)
		if code != 0 {
			t.Errorf("%v: exit %d\nstderr: %s", g.args, code, errs)
		}
		if out != string(want) {
			t.Errorf("%v: output differs from %s\ngot:\n%s\nwant:\n%s", g.args, g.file, out, want)
		}
	}
}
