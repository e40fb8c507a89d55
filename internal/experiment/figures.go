package experiment

import (
	"fmt"

	"asap/internal/core"
	"asap/internal/workload"
)

// Every figure in this file runs its (benchmark × variant) matrix as one
// grid on the sweep's pool and reduces the ordered results row by row, so
// the tables are byte-identical at any pool width.

// schemeGrid runs every benchmark of benches under every scheme of order,
// standard cells with valueBytes values: one row per benchmark.
func (sw Sweep) schemeGrid(figure string, benches, order []string, valueBytes int) [][]workload.Result {
	return sw.grid(figure, len(benches), len(order), func(r, c int) runSpec {
		s := sw.cell(Variant{Scheme: order[c]}, benches[r], "")
		s.valueBytes = valueBytes
		return s
	})
}

// Fig1 reproduces Figure 1: throughput of the software approach with
// DPO-only and LPO&DPO persist operations, normalized to NP, on the eight
// non-TPCC benchmarks.
func (sw Sweep) Fig1() *Table {
	t := &Table{
		Title:   "Figure 1: overhead of LPOs and DPOs in a software approach",
		Note:    "normalized throughput, higher is better; paper geomeans: DPO-only 0.58x, LPO&DPO 0.31x",
		Columns: []string{"NP", "DPO Only", "LPO & DPO"},
	}
	var benches []string
	for _, b := range sw.Scale.Benchmarks {
		if b != "TPCC" { // Figure 1 runs the eight original benchmarks
			benches = append(benches, b)
		}
	}
	for r, row := range sw.schemeGrid("fig1", benches, []string{"NP", "SW-DPOOnly", "SW"}, 64) {
		t.AddRow(benches[r], norm(row, row[0], workload.Result.Throughput)...)
	}
	t.AddGeoMean()
	return t
}

// fig7Schemes is the comparison order of Figures 7, 8.
var fig7Schemes = []string{"SW", "HWRedo", "HWUndo", "ASAP", "NP"}

// Fig7 reproduces Figure 7: speedup over SW for both 64 B and 2 KB data
// sizes per atomic region.
func (sw Sweep) Fig7(valueBytes int) *Table {
	t := &Table{
		Title:   "Figure 7: performance comparison (speedup over SW, higher is better)",
		Note:    "paper geomeans at both sizes: HWRedo 1.49x, HWUndo 1.60x, ASAP 2.25x, NP 2.34x",
		Columns: fig7Schemes,
	}
	benches := sw.Scale.Benchmarks
	for r, row := range sw.schemeGrid(fmt.Sprintf("fig7-%dB", valueBytes), benches, fig7Schemes, valueBytes) {
		t.AddRow(benches[r], inv(row, row[0], cycles)...) // fig7Schemes[0] == "SW"
	}
	t.AddGeoMean()
	return t
}

// Fig8 reproduces Figure 8: average cycles per atomic region normalized
// to NP (lower is better).
func (sw Sweep) Fig8(valueBytes int) *Table {
	t := &Table{
		Title:   "Figure 8: normalized average cycles per atomic region (lower is better)",
		Note:    "paper geomeans: HWRedo 1.69x, HWUndo 1.61x, ASAP 1.08x",
		Columns: fig7Schemes,
	}
	benches := sw.Scale.Benchmarks
	for r, row := range sw.schemeGrid("fig8", benches, fig7Schemes, valueBytes) {
		t.AddRow(benches[r], norm(row, row[len(row)-1], workload.Result.CyclesPerRegion)...) // the last scheme is NP
	}
	t.AddGeoMean()
	return t
}

// Fig9a reproduces Figure 9a: the incremental PM write-traffic effect of
// DPO coalescing, LPO dropping and DPO dropping, normalized to full ASAP.
func (sw Sweep) Fig9a() *Table {
	// The incremental optimization ladder: none, then coalescing, LPO
	// dropping and DPO dropping switched on in turn.
	noOpt := core.DefaultOptions()
	noOpt.Coalescing, noOpt.LPODropping, noOpt.DPODropping = false, false, false
	coal := noOpt
	coal.Coalescing = true
	coalLP := coal
	coalLP.LPODropping = true
	ladder := []core.Options{noOpt, coal, coalLP, core.DefaultOptions()}
	names := []string{"ASAP-No-Opt", "ASAP+C", "ASAP+C+LP", "ASAP"}
	t := &Table{
		Title:   "Figure 9a: incremental improvement of ASAP's traffic optimizations (lower is better)",
		Note:    "PM write traffic normalized to ASAP; paper: +C saves ~8%, +LP ~33%, +DP ~31%",
		Columns: names,
	}
	benches := sw.Scale.Benchmarks
	res := sw.grid("fig9a", len(benches), len(ladder), func(r, c int) runSpec {
		opts := ladder[c]
		return sw.cell(Variant{Scheme: "ASAP", ASAPOpts: &opts}, benches[r], benches[r]+"/"+names[c])
	})
	for r, row := range res {
		t.AddRow(benches[r], norm(row, row[len(row)-1], pmWrites)...)
	}
	t.AddGeoMean()
	return t
}

// Fig9b reproduces Figure 9b: PM write traffic of SW, HWRedo, HWUndo and
// ASAP, normalized to ASAP.
func (sw Sweep) Fig9b() *Table {
	order := []string{"SW", "HWRedo", "HWUndo", "ASAP"}
	t := &Table{
		Title:   "Figure 9b: persistent memory write traffic (normalized to ASAP, lower is better)",
		Note:    "paper: ASAP = 0.62x HWRedo, 0.52x HWUndo, 0.39x SW; Q benefits most vs HWUndo",
		Columns: order,
	}
	benches := sw.Scale.Benchmarks
	for r, row := range sw.schemeGrid("fig9b", benches, order, 64) {
		t.AddRow(benches[r], norm(row, row[len(row)-1], pmWrites)...)
	}
	t.AddGeoMean()
	return t
}

// Fig10 reproduces Figure 10: throughput normalized to NP at each PM
// latency multiplier, per scheme. One table per scheme keeps the paper's
// series readable; the returned tables are NP-relative.
func (sw Sweep) Fig10() []*Table {
	// The sensitivity mechanism is WPQ saturation, which needs the offered
	// load of a well-populated machine (the paper ran 18 cores): raise the
	// worker count if the scale is small.
	sw.Scale.Threads = max(sw.Scale.Threads, 8)
	mults := []int{1, 2, 4, 16}
	order := []string{"NP", "ASAP", "HWUndo", "HWRedo"}
	// One grid row per (benchmark, multiplier) point, one column per scheme.
	type point struct {
		bench string
		mult  int
	}
	var points []point
	for _, b := range sw.Scale.Benchmarks {
		for _, m := range mults {
			points = append(points, point{b, m})
		}
	}
	res := sw.grid("fig10", len(points), len(order), func(r, c int) runSpec {
		p := points[r]
		return sw.cell(Variant{Scheme: order[c], PMMult: p.mult}, p.bench, fmt.Sprintf("%s/%s@%dx", p.bench, order[c], p.mult))
	})
	var tables []*Table
	for _, b := range sw.Scale.Benchmarks {
		t := &Table{
			Title:   "Figure 10 [" + b + "]: throughput vs PM latency (normalized to NP at same latency)",
			Note:    "paper: ASAP stays near NP across 1x-16x; HWUndo degrades fastest",
			Columns: []string{"1x", "2x", "4x", "16x"},
		}
		// This benchmark's rows, one per multiplier, each normalized to its
		// NP cell (order[0]).
		var vsNP [][]float64
		for _, row := range res[:len(mults)] {
			vsNP = append(vsNP, norm(row, row[0], workload.Result.Throughput))
		}
		res = res[len(mults):]
		for c, s := range order {
			var vals []float64
			for _, at := range vsNP {
				vals = append(vals, at[c])
			}
			t.AddRow(s, vals...)
		}
		tables = append(tables, t)
	}
	return tables
}

// Sec74 reproduces the §7.4 sensitivity: ASAP with a 16-entry LH-WPQ
// against ASAP/HWUndo/HWRedo at the default 128 entries.
func (sw Sweep) Sec74() *Table {
	t := &Table{
		Title:   "Section 7.4: sensitivity to LH-WPQ size (speedup over SW)",
		Note:    "paper: ASAP@16 runs 0.78x of ASAP@128, still 1.18x/1.10x over HWRedo/HWUndo@128",
		Columns: []string{"ASAP@128", "ASAP@16", "HWRedo@128", "HWUndo@128"},
	}
	variants := []struct {
		label string
		v     Variant
	}{
		{"SW", Variant{Scheme: "SW"}},
		{"ASAP@128", Variant{Scheme: "ASAP"}},
		{"ASAP@16", Variant{Scheme: "ASAP", LHWPQ: 16}},
		{"HWRedo@128", Variant{Scheme: "HWRedo"}},
		{"HWUndo@128", Variant{Scheme: "HWUndo"}},
	}
	benches := sw.Scale.Benchmarks
	res := sw.grid("sec74", len(benches), len(variants), func(r, c int) runSpec {
		return sw.cell(variants[c].v, benches[r], benches[r]+"/"+variants[c].label)
	})
	for r, row := range res {
		t.AddRow(benches[r], inv(row[1:], row[0], cycles)...) // variants[0] is SW
	}
	t.AddGeoMean()
	return t
}
