package experiment

import (
	"math"
	"strings"
	"testing"
)

// tinyScale keeps experiment tests fast while preserving shapes.
func tinyScale(benches ...string) Scale {
	if len(benches) == 0 {
		benches = []string{"BN", "Q", "HM"}
	}
	return Scale{Threads: 3, OpsPerThread: 80, InitialItems: 96, Benchmarks: benches}
}

// cell returns the value at (row, column) of t, or NaN.
func cell(t *Table, row, column string) float64 {
	for _, r := range t.Rows {
		for i, c := range t.Columns {
			if r.Name == row && c == column && i < len(r.Values) {
				return r.Values[i]
			}
		}
	}
	return math.NaN()
}

func TestFig1Shape(t *testing.T) {
	tab := Sweep{Scale: tinyScale("BN", "HM", "Q")}.Fig1()
	for _, r := range tab.Rows {
		np, dpo, sw := r.Values[0], r.Values[1], r.Values[2]
		if np != 1 {
			t.Fatalf("%s: NP column must be 1, got %v", r.Name, np)
		}
		if !(dpo < 1 && sw < dpo) {
			t.Fatalf("%s: Figure 1 ordering NP > DPO-only > LPO&DPO violated: %v", r.Name, r.Values)
		}
	}
}

func TestFig7Shape(t *testing.T) {
	tab := Sweep{Scale: tinyScale()}.Fig7(64)
	g := func(col string) float64 { return cell(tab, "GeoMean", col) }
	if !(g("ASAP") > g("HWUndo") && g("ASAP") > g("HWRedo")) {
		t.Fatalf("ASAP must beat both HW baselines:\n%s", tab)
	}
	if !(g("HWUndo") > 1 && g("HWRedo") > 1) {
		t.Fatalf("HW baselines must beat SW:\n%s", tab)
	}
	if g("NP") < g("ASAP") {
		t.Fatalf("NP is the upper bound:\n%s", tab)
	}
	// ASAP close to NP (paper 0.96x of NP).
	if g("ASAP")/g("NP") < 0.80 {
		t.Fatalf("ASAP should be close to NP:\n%s", tab)
	}
}

func TestFig8Shape(t *testing.T) {
	tab := Sweep{Scale: tinyScale()}.Fig8(64)
	g := func(col string) float64 { return cell(tab, "GeoMean", col) }
	if !(g("ASAP") < g("HWUndo") && g("ASAP") < g("HWRedo") && g("ASAP") < g("SW")) {
		t.Fatalf("ASAP must have the lowest region latency overhead:\n%s", tab)
	}
	if g("ASAP") > 1.3 {
		t.Fatalf("ASAP cycles/region should be near NP (paper 1.08x):\n%s", tab)
	}
}

func TestFig9aMonotone(t *testing.T) {
	tab := Sweep{Scale: tinyScale("BN", "Q")}.Fig9a()
	for _, r := range tab.Rows {
		for i := 1; i < len(r.Values); i++ {
			if r.Values[i] > r.Values[i-1]+1e-9 {
				t.Fatalf("%s: optimization ladder must not increase traffic: %v", r.Name, r.Values)
			}
		}
		if r.Values[len(r.Values)-1] != 1 {
			t.Fatalf("%s: full-ASAP column must normalize to 1: %v", r.Name, r.Values)
		}
	}
}

func TestFig9bShape(t *testing.T) {
	tab := Sweep{Scale: tinyScale("BN", "Q", "HM")}.Fig9b()
	g := func(col string) float64 { return cell(tab, "GeoMean", col) }
	if !(g("SW") > g("HWUndo") && g("SW") > g("HWRedo")) {
		t.Fatalf("SW must generate the most traffic:\n%s", tab)
	}
	if !(g("HWUndo") > 1 && g("HWRedo") > 1) {
		t.Fatalf("ASAP must generate the least traffic:\n%s", tab)
	}
}

func TestFig10Shape(t *testing.T) {
	tabs := Sweep{Scale: tinyScale("Q")}.Fig10()
	if len(tabs) != 1 {
		t.Fatalf("tables = %d", len(tabs))
	}
	tab := tabs[0]
	asap16 := cell(tab, "ASAP", "16x")
	undo16 := cell(tab, "HWUndo", "16x")
	if asap16 < undo16 {
		t.Fatalf("at 16x latency ASAP must stay closer to NP than HWUndo:\n%s", tab)
	}
	asap1 := cell(tab, "ASAP", "1x")
	if asap16 < asap1*0.5 {
		t.Fatalf("ASAP should be robust to latency (paper Figure 10):\n%s", tab)
	}
}

func TestSec74Shape(t *testing.T) {
	tab := Sweep{Scale: tinyScale("BN", "Q")}.Sec74()
	g := func(col string) float64 { return cell(tab, "GeoMean", col) }
	if g("ASAP@16") > g("ASAP@128")+1e-9 {
		t.Fatalf("shrinking the LH-WPQ cannot speed ASAP up:\n%s", tab)
	}
	if !(g("ASAP@16") > g("HWRedo@128")*0.9 && g("ASAP@16") > g("HWUndo@128")*0.9) {
		t.Fatalf("ASAP@16 should remain competitive with the baselines (paper: 1.18x/1.10x):\n%s", tab)
	}
}

func TestTableHelpers(t *testing.T) {
	tab := &Table{Title: "t", Columns: []string{"a", "b"}}
	tab.AddRow("x", 2, 8)
	tab.AddRow("y", 8, 2)
	tab.AddGeoMean()
	if got := cell(tab, "GeoMean", "a"); math.Abs(got-4) > 1e-9 {
		t.Fatalf("geomean = %v, want 4", got)
	}
	if !math.IsNaN(cell(tab, "nope", "a")) || !math.IsNaN(cell(tab, "x", "nope")) {
		t.Fatal("missing lookups must return NaN")
	}
	out := tab.String()
	if !strings.Contains(out, "GeoMean") || !strings.Contains(out, "t") {
		t.Fatalf("render missing pieces:\n%s", out)
	}
}

func TestRunPanicsOnUnknowns(t *testing.T) {
	for _, fn := range []func(){
		func() { Run(Variant{Scheme: "bogus"}, "BN", tinyScale(), 64) },
		func() { Run(Variant{Scheme: "NP"}, "bogus", tinyScale(), 64) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}
