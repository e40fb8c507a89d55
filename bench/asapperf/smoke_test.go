package main

import (
	"os/exec"
	"path/filepath"
	"testing"
)

// TestSmoke runs every workload at toy size (one cell, one experiment or
// six jobs), untraced and traced, against a freshly built asapd. Each run
// must pass its own output checks and report exactly the metrics
// BENCHMARK.json lists, with their units. The traced service run also
// checks that the in-process traced daemon gives every job the result
// bytes and manifest artifact names the asapd child gave it.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds asapd and runs every workload")
	}
	asapd := filepath.Join(t.TempDir(), "asapd")
	if out, err := exec.Command("go", "build", "-o", asapd, "asap/cmd/asapd").CombinedOutput(); err != nil {
		t.Fatalf("building asapd: %v\n%s", err, out)
	}
	t.Setenv("TMPDIR", t.TempDir())
	var bench benchmarkFile
	if err := readJSON("../../BENCHMARK.json", &bench); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadOrder {
		for _, traced := range []bool{false, true} {
			res, err := measure(runOptions{
				workload: w, seed: oracleSeed, seconds: 0.1, trace: traced, toy: true,
				root: "../..", asapd: asapd,
			})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d checked operations failed", w, traced, res.Failed, res.Attempted)
			}
			want := bench.EndToEnd
			if traced {
				want = bench.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json lists %d", w, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s missing or not in %s: %+v", w, traced, m.Name, m.Unit, got)
				}
			}
		}
	}
}
