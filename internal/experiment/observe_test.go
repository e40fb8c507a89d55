package experiment

import (
	"reflect"
	"strings"
	"testing"

	"asap/internal/obs"
)

func obsScale() Scale {
	return Scale{Threads: 2, OpsPerThread: 40, InitialItems: 32}
}

// TestObservabilityZeroPerturbation is the gate behind the "zero-cost
// when disabled" claim taken one step further: even when ATTACHED, the
// observer must not move a single cycle or counter, because gauges only
// read state and the profiler only listens to clock callbacks.
func TestObservabilityZeroPerturbation(t *testing.T) {
	for _, sch := range []string{"SW", "ASAP"} {
		base := Run(Variant{Scheme: sch}, "Q", obsScale(), 64)
		sess := &obs.Session{Prof: obs.NewProfiler(), Rec: obs.NewRecorder(500, 0)}
		got := Run(Variant{Scheme: sch, Obs: sess}, "Q", obsScale(), 64)
		if base.Cycles != got.Cycles {
			t.Errorf("%s: cycles %d with observer vs %d without", sch, got.Cycles, base.Cycles)
		}
		if !reflect.DeepEqual(base.Stats, got.Stats) {
			t.Errorf("%s: counters diverged under observation", sch)
		}
		if base.RegionP99 != got.RegionP99 {
			t.Errorf("%s: p99 %d with observer vs %d without", sch, got.RegionP99, base.RegionP99)
		}
	}
}

// TestProfilerExactUnderEveryScheme runs a real workload under each
// Figure 7 scheme and asserts the acceptance invariant: every thread's
// bucket cycles sum EXACTLY to its simulated lifetime.
func TestProfilerExactUnderEveryScheme(t *testing.T) {
	for _, sch := range fig7Schemes {
		p := obs.NewProfiler()
		res := Run(Variant{Scheme: sch, Obs: &obs.Session{Prof: p}}, "Q", obsScale(), 64)
		if err := p.Check(); err != nil {
			t.Fatalf("%s: %v", sch, err)
		}
		tps := p.Threads()
		if len(tps) == 0 {
			t.Fatalf("%s: no thread profiles", sch)
		}
		var total uint64
		for _, tp := range tps {
			var sum uint64
			for _, c := range tp.Cycles {
				sum += c
			}
			if sum != tp.Total() {
				t.Fatalf("%s: thread %s bucket sum %d != lifetime %d", sch, tp.Name, sum, tp.Total())
			}
			total += sum
		}
		if total == 0 || res.Cycles == 0 {
			t.Fatalf("%s: empty run (total=%d cycles=%d)", sch, total, res.Cycles)
		}
	}
}

// TestProfilerSeesContention: at this scale the Q benchmark contends, so
// some non-compute bucket must be charged — the profiler is not just
// calling everything compute.
func TestProfilerSeesContention(t *testing.T) {
	p := obs.NewProfiler()
	Run(Variant{Scheme: "ASAP", Obs: &obs.Session{Prof: p}}, "Q", obsScale(), 64)
	per, total := p.Totals()
	if total == 0 {
		t.Fatal("no cycles charged")
	}
	if per[obs.Compute] == total {
		t.Fatal("every cycle charged to compute; no wait was attributed")
	}
}

// TestWireGaugesSamples: attaching only a recorder wires the channel and
// engine gauges and actually collects rows as the kernel clock moves.
func TestWireGaugesSamples(t *testing.T) {
	rec := obs.NewRecorder(200, 0)
	Run(Variant{Scheme: "ASAP", Obs: &obs.Session{Rec: rec}}, "Q", obsScale(), 64)
	names := rec.Names()
	joined := strings.Join(names, ",")
	for _, want := range []string{"wpq0", "wpq0.waiting", "lhwpq0", "regions.active", "deplist.live", "cllist.live", "log.bytes", "commit.backlog"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("gauge %q not wired; have %v", want, names)
		}
	}
	samples := rec.Samples()
	if len(samples) == 0 {
		t.Fatal("recorder collected no samples")
	}
	for _, s := range samples {
		if len(s.Values) != len(names) {
			t.Fatalf("sample at %d has %d values for %d gauges", s.At, len(s.Values), len(names))
		}
	}
}

// TestWireGaugesNonASAP: under a baseline scheme only the channel gauges
// exist — no engine structures to sample.
func TestWireGaugesNonASAP(t *testing.T) {
	rec := obs.NewRecorder(200, 0)
	Run(Variant{Scheme: "SW", Obs: &obs.Session{Rec: rec}}, "Q", obsScale(), 64)
	joined := strings.Join(rec.Names(), ",")
	if !strings.Contains(joined, "wpq0") {
		t.Fatalf("channel gauges missing: %v", rec.Names())
	}
	if strings.Contains(joined, "regions.active") {
		t.Fatalf("engine gauges wired under SW: %v", rec.Names())
	}
}

// TestCycleAccountingReport: the cross-scheme accounting runs end to end
// and renders every scheme column plus the totals footer.
func TestCycleAccountingReport(t *testing.T) {
	out := Sweep{Scale: obsScale()}.CycleAccounting("Q", 64)
	for _, want := range append(append([]string{}, fig7Schemes...), "compute", "total cycles") {
		if !strings.Contains(out, want) {
			t.Fatalf("accounting output missing %q:\n%s", want, out)
		}
	}
}
