package main

import (
	"fmt"
	"math"
	"os"
	"reflect"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestParseTracesAndClassify(t *testing.T) {
	f, err := os.Open("testdata/pprof-traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	samples, err := parseTraces(f)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct{ layer, allocBy string }{
		{"cache", ""},              // asap leaf
		{"runtime.sched", ""},      // channel handoff from the sim kernel
		{"runtime.sched", ""},      // scheduler, no asap frame
		{"runtime.alloc", "cache"}, // mallocgc credited to its caller
		{"runtime.gc", ""},         // background mark worker
		{"runtime.gc", ""},         // mark assist inside an allocation
		{"memdev", ""},             // map hashing for memdev
		{"stats", ""},              // internal/runtime/maps is a library
		{"wal", ""},                // crc32 goes to its asap caller
		{"harness", ""},            // generic go.shape frame
		{"other", ""},              // library leaf with no asap caller
		{"obs", ""},                // trace groups with obs
		{"runtime.sched", ""},      // lock inside chanrecv
	}
	if len(samples) != len(want) {
		t.Fatalf("parsed %d samples, want %d", len(samples), len(want))
	}
	for i, s := range samples {
		layer, by := classify(s.frames)
		if layer != want[i].layer || by != want[i].allocBy {
			t.Errorf("sample %d (%s): got (%s, %q), want (%s, %q)", i, s.frames[0], layer, by, want[i].layer, want[i].allocBy)
		}
	}
	if samples[0].frames[2] != "asap/internal/workload.(*Ctx).StoreBytes" {
		t.Errorf("inline marker not stripped: %q", samples[0].frames[2])
	}

	shares := layerShares(samples)
	total := 0.0
	for _, l := range profileLayers {
		total += shares[selfShareName(l)]
	}
	if !near(total, 1) {
		t.Errorf("layer shares sum to %v, want 1", total)
	}
	for name, v := range map[string]float64{
		"runtime.sched_share": 300.0 / 1200, "runtime.alloc_share": 80.0 / 1200, "runtime.gc_share": 100.0 / 1200,
		"harness.self_share": 300.0 / 1200, "other.self_share": 150.0 / 1200, "cache.alloc_share": 80.0 / 1200,
		"trace.samples": 120,
	} {
		if !near(shares[name], v) {
			t.Errorf("%s = %v, want %v", name, shares[name], v)
		}
	}
}

func TestPkgOf(t *testing.T) {
	for frame, want := range map[string]string{
		"asap/internal/runner.collect[go.shape.struct { a asap/internal/sim.X }].func1": "asap/internal/runner",
		"asap/internal/core.(*Engine).Store":                                            "asap/internal/core",
		"runtime.mallocgc":                                                              "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":                                  "internal/runtime/maps",
		"gcWriteBarrier":                                                                "",
	} {
		if got := pkgOf(frame); got != want {
			t.Errorf("pkgOf(%q) = %q, want %q", frame, got, want)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for n, want := range map[int]float64{5: 50, 40: 75, 100: 90, 200: 95, 300: 95, 999: 95, 1000: 99, 10000: 99.9} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestPercentileAndQuartiles(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got := percentile(xs, 50); got != 5 {
		t.Errorf("p50 = %v, want 5", got)
	}
	if got := percentile(xs, 95); got != 10 {
		t.Errorf("p95 = %v, want 10", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles(xs)
	if !near(q1, 2.75) || !near(med, 5.5) || !near(q3, 8.25) {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	if !near(spread(xs), (8.25-2.75)/5.5) {
		t.Errorf("spread = %v", spread(xs))
	}
}

func TestExpoDelta(t *testing.T) {
	read := func(path string) expo {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		e, err := parseExpo(f)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	d := read("testdata/metrics-after.txt").delta(read("testdata/metrics-before.txt"))
	for name, want := range map[string]float64{
		"asapd_journal_appends_total":                                   30,
		"asapd_store_put_bytes_total":                                   1e7,
		`asapd_store_bytes{store="artifacts"}`:                          5e5,
		`asapd_http_request_seconds_count{route="/api/v1/jobs"}`:        10,
		`asapd_http_request_seconds_bucket{route="/metrics",le="+Inf"}`: 1,
		"asapd_resultcache_hits":                                        310,
	} {
		if !near(d[name], want) {
			t.Errorf("delta %s = %v, want %v", name, d[name], want)
		}
	}
	if got := d.sum("asapd_store_bytes"); !near(got, 5e5+4096) {
		t.Errorf("sum over labels = %v", got)
	}
}

func TestJobMixDeterministic(t *testing.T) {
	a, b := jobMix(7, serviceJobs, warmExperiments), jobMix(7, serviceJobs, warmExperiments)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different mixes")
	}
	c := jobMix(8, serviceJobs, warmExperiments)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same order")
	}
	// Another seed reorders the same jobs.
	count := func(jobs []mixJob) map[string]int {
		m := map[string]int{}
		for _, j := range jobs {
			m[fmt.Sprintf("%v %s %v", j.Spec.Experiments, j.Spec.ProfileBench, j.Download)]++
		}
		return m
	}
	if !reflect.DeepEqual(count(a), count(c)) {
		t.Fatal("different seeds gave different jobs")
	}
	kinds := map[string]int{}
	downloads := 0
	for _, j := range a {
		switch e := j.Spec.Experiments[0]; e {
		case "profile", "config", "area":
			kinds[e]++
		default:
			kinds["warm"]++
		}
		if j.Download {
			downloads++
		}
	}
	want := map[string]int{"warm": 120, "profile": 40, "config": 20, "area": 20}
	if !reflect.DeepEqual(kinds, want) || downloads != 50 {
		t.Errorf("mix %v with %d downloads, want %v with 50", kinds, downloads, want)
	}
}

func TestCompareRules(t *testing.T) {
	parent := []float64{10, 10.2, 9.9, 10.1, 10, 10.3, 9.8, 10.1, 10, 10.2}
	faster := []float64{9, 9.1, 8.9, 9.2, 9, 9.1, 9.3, 8.8, 9, 9.1}
	if met, text := judgeClaim(parent, faster, true); !met {
		t.Errorf("a 10%% gain winning every pair was not met: %s", text)
	}
	if met, _ := judgeClaim(parent[:9], faster[:9], true); met {
		t.Error("a claim on nine pairs was met")
	}
	if v, _ := judgeBound(parent, faster, true, 0.05); v != "ok" {
		t.Errorf("a faster change is %s", v)
	}
	slower := []float64{11, 11.2, 11.1, 11, 11.3, 11, 11.1, 11.2, 11, 11.1}
	if v, _ := judgeBound(parent, slower, true, 0.05); v != "REGRESSED" {
		t.Errorf("a 10%% slower change is %s", v)
	}
	noisy := []float64{5, 15, 8, 12, 10, 6, 14, 9, 11, 10}
	if v, _ := judgeBound(noisy, slower, true, 0.05); v != "unresolved" {
		t.Errorf("a change against a noisy parent is %s", v)
	}
}
