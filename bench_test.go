// Benchmarks regenerating every table and figure in the paper's
// evaluation (§6.2, §7). Each benchmark runs the corresponding experiment
// and reports the headline numbers the paper quotes as custom metrics, so
//
//	go test -bench=. -benchmem
//
// prints the reproduction next to its runtime cost. EXPERIMENTS.md records
// the paper-vs-measured comparison in full.
package asap_test

import (
	"math"
	"testing"

	"asap/internal/area"
	"asap/internal/experiment"
)

// benchScale keeps `go test -bench=.` minutes-fast while preserving every
// figure's shape; use cmd/asapbench -full for paper-scale runs.
func benchScale() experiment.Scale {
	return experiment.Scale{
		Threads:      4,
		OpsPerThread: 150,
		InitialItems: 256,
		Benchmarks:   experiment.BenchNames(),
	}
}

// cell returns the value at (row, column) of t, or NaN.
func cell(t *experiment.Table, row, column string) float64 {
	for _, r := range t.Rows {
		for i, c := range t.Columns {
			if r.Name == row && c == column && i < len(r.Values) {
				return r.Values[i]
			}
		}
	}
	return math.NaN()
}

// BenchmarkFig1 regenerates Figure 1: software persistence overhead
// (paper geomeans: DPO-only 0.58x NP, LPO&DPO 0.31x NP).
func BenchmarkFig1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiment.Sweep{Scale: benchScale()}.Fig1()
		b.ReportMetric(cell(t, "GeoMean", "DPO Only"), "DPOOnly/NP")
		b.ReportMetric(cell(t, "GeoMean", "LPO & DPO"), "LPO&DPO/NP")
	}
}

// BenchmarkFig7_64B regenerates Figure 7 at 64 B regions (paper geomeans
// over SW: HWRedo 1.49x, HWUndo 1.60x, ASAP 2.25x, NP 2.34x).
func BenchmarkFig7_64B(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiment.Sweep{Scale: benchScale()}.Fig7(64)
		b.ReportMetric(cell(t, "GeoMean", "HWRedo"), "HWRedo_x")
		b.ReportMetric(cell(t, "GeoMean", "HWUndo"), "HWUndo_x")
		b.ReportMetric(cell(t, "GeoMean", "ASAP"), "ASAP_x")
		b.ReportMetric(cell(t, "GeoMean", "NP"), "NP_x")
	}
}

// BenchmarkFig7_2KB regenerates Figure 7 at 2 KB regions.
func BenchmarkFig7_2KB(b *testing.B) {
	scale := benchScale()
	scale.OpsPerThread = 60 // 32 lines per region: keep runtime bounded
	for i := 0; i < b.N; i++ {
		t := experiment.Sweep{Scale: scale}.Fig7(2048)
		b.ReportMetric(cell(t, "GeoMean", "ASAP"), "ASAP_x")
		b.ReportMetric(cell(t, "GeoMean", "NP"), "NP_x")
	}
}

// BenchmarkFig8 regenerates Figure 8: cycles per atomic region normalized
// to NP (paper: HWRedo 1.69x, HWUndo 1.61x, ASAP 1.08x).
func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiment.Sweep{Scale: benchScale()}.Fig8(64)
		b.ReportMetric(cell(t, "GeoMean", "HWRedo"), "HWRedo_x")
		b.ReportMetric(cell(t, "GeoMean", "HWUndo"), "HWUndo_x")
		b.ReportMetric(cell(t, "GeoMean", "ASAP"), "ASAP_x")
	}
}

// BenchmarkFig9a regenerates Figure 9a: the traffic-optimization ladder
// normalized to full ASAP (paper: No-Opt ~2.2x, +C ~2x, +C+LP ~1.45x).
func BenchmarkFig9a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiment.Sweep{Scale: benchScale()}.Fig9a()
		b.ReportMetric(cell(t, "GeoMean", "ASAP-No-Opt"), "NoOpt_x")
		b.ReportMetric(cell(t, "GeoMean", "ASAP+C"), "C_x")
		b.ReportMetric(cell(t, "GeoMean", "ASAP+C+LP"), "CLP_x")
	}
}

// BenchmarkFig9b regenerates Figure 9b: PM write traffic normalized to
// ASAP (paper: SW 2.56x, HWUndo 1.92x, HWRedo 1.61x of ASAP).
func BenchmarkFig9b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiment.Sweep{Scale: benchScale()}.Fig9b()
		b.ReportMetric(cell(t, "GeoMean", "SW"), "SW_x")
		b.ReportMetric(cell(t, "GeoMean", "HWUndo"), "HWUndo_x")
		b.ReportMetric(cell(t, "GeoMean", "HWRedo"), "HWRedo_x")
	}
}

// BenchmarkFig10 regenerates Figure 10 on the dependence-heavy Q
// benchmark: throughput normalized to NP as PM latency scales 1x-16x
// (paper: ASAP stays near NP, HWUndo degrades fastest).
func BenchmarkFig10(b *testing.B) {
	scale := benchScale()
	scale.Benchmarks = []string{"Q"}
	for i := 0; i < b.N; i++ {
		t := experiment.Sweep{Scale: scale}.Fig10()[0]
		b.ReportMetric(cell(t, "ASAP", "16x"), "ASAP@16x")
		b.ReportMetric(cell(t, "HWUndo", "16x"), "HWUndo@16x")
		b.ReportMetric(cell(t, "HWRedo", "16x"), "HWRedo@16x")
	}
}

// BenchmarkSec74 regenerates the §7.4 LH-WPQ sensitivity (paper: ASAP@16
// runs 0.78x of ASAP@128 yet beats both baselines).
func BenchmarkSec74(b *testing.B) {
	scale := benchScale()
	scale.Benchmarks = []string{"BN", "Q", "HM"}
	for i := 0; i < b.N; i++ {
		t := experiment.Sweep{Scale: scale}.Sec74()
		b.ReportMetric(cell(t, "GeoMean", "ASAP@16")/cell(t, "GeoMean", "ASAP@128"), "16v128")
	}
}

// BenchmarkSec62Area regenerates the §6.2 hardware-overhead estimate
// (paper: ~2.5 % of chip area, < 3 %).
func BenchmarkSec62Area(b *testing.B) {
	for i := 0; i < b.N; i++ {
		frac := area.AreaFraction(area.Default())
		b.ReportMetric(frac*100, "area_%")
	}
}

// BenchmarkAblationCoalesce sweeps the DPO coalescing distance around the
// paper's empirically chosen 4 (§4.6.2) and reports the traffic penalty
// of distance 1 relative to 4.
func BenchmarkAblationCoalesce(b *testing.B) {
	scale := benchScale()
	for i := 0; i < b.N; i++ {
		t := experiment.Sweep{Scale: scale}.AblationCoalesce("Q")
		b.ReportMetric(cell(t, "dist=1", "pm.writes"), "d1_traffic_x")
		b.ReportMetric(cell(t, "dist=16", "pm.writes"), "d16_traffic_x")
	}
}

// BenchmarkAblationStructures sizes the CL List/Dep slots against Table 2.
func BenchmarkAblationStructures(b *testing.B) {
	scale := benchScale()
	for i := 0; i < b.N; i++ {
		t := experiment.Sweep{Scale: scale}.AblationStructures("Q")
		b.ReportMetric(cell(t, "CL2x4,Dep2", "cycles"), "half_cycles_x")
	}
}

// BenchmarkCoRunning measures the co-running throughput claim of §1.
func BenchmarkCoRunning(b *testing.B) {
	scale := experiment.Scale{Threads: 2, OpsPerThread: 100, InitialItems: 128}
	for i := 0; i < b.N; i++ {
		t := experiment.Sweep{Scale: scale}.CoRunning()
		b.ReportMetric(cell(t, "ASAP", "ops/kcycle"), "ASAP_opskc")
		b.ReportMetric(cell(t, "SW", "ops/kcycle"), "SW_opskc")
	}
}

// BenchmarkLifetime reports the projected PM lifetime factor (§5.1).
func BenchmarkLifetime(b *testing.B) {
	scale := benchScale()
	scale.Benchmarks = []string{"BN", "Q", "HM"}
	for i := 0; i < b.N; i++ {
		t := experiment.Sweep{Scale: scale}.Lifetime()
		b.ReportMetric(cell(t, "GeoMean", "ASAP"), "ASAP_life_x")
	}
}

// BenchmarkDesignChoice compares undo-based ASAP with the Figure 2c
// redo-based alternative the paper sketches in §3.
func BenchmarkDesignChoice(b *testing.B) {
	scale := benchScale()
	scale.Benchmarks = []string{"BN", "Q", "HM"}
	for i := 0; i < b.N; i++ {
		t := experiment.Sweep{Scale: scale}.DesignChoice()
		b.ReportMetric(cell(t, "GeoMean", "ASAP xSW"), "undo_xSW")
		b.ReportMetric(cell(t, "GeoMean", "ASAP-Redo xSW"), "redo_xSW")
	}
}

// BenchmarkNUMA quantifies §7.3: ASAP tolerates remote-node persist
// latency that collapses the synchronous baselines.
func BenchmarkNUMA(b *testing.B) {
	scale := experiment.Scale{Threads: 3, OpsPerThread: 100, InitialItems: 128}
	for i := 0; i < b.N; i++ {
		t := experiment.Sweep{Scale: scale}.NUMA()
		b.ReportMetric(cell(t, "ASAP", "remote+800"), "ASAP@+800")
		b.ReportMetric(cell(t, "HWUndo", "remote+800"), "HWUndo@+800")
	}
}

// BenchmarkTailLatency measures the §1 motivation directly: region p99
// under ASAP vs the synchronous baselines.
func BenchmarkTailLatency(b *testing.B) {
	scale := experiment.Scale{Threads: 4, OpsPerThread: 120, InitialItems: 128}
	for i := 0; i < b.N; i++ {
		t := experiment.Sweep{Scale: scale}.TailLatency()
		b.ReportMetric(cell(t, "ASAP", "p99"), "ASAP_p99")
		b.ReportMetric(cell(t, "HWUndo", "p99"), "HWUndo_p99")
		b.ReportMetric(cell(t, "NP", "p99"), "NP_p99")
	}
}

// BenchmarkScaling quantifies §2.1: persist latency inside critical
// sections throttles concurrency; reported at 8 workers.
func BenchmarkScaling(b *testing.B) {
	scale := experiment.Scale{Threads: 4, OpsPerThread: 100, InitialItems: 128}
	for i := 0; i < b.N; i++ {
		t := experiment.Sweep{Scale: scale}.Scaling()
		b.ReportMetric(cell(t, "ASAP", "8"), "ASAP@8")
		b.ReportMetric(cell(t, "HWUndo", "8"), "HWUndo@8")
	}
}
