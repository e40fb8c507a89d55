package experiment

import "testing"

func TestAblationCoalesceKnee(t *testing.T) {
	tab := Sweep{Scale: tinyScale()}.AblationCoalesce("Q")
	// Traffic at distance 4 is no worse than at distance 1, and going to
	// 16 buys little (the paper's "no benefit beyond four").
	d1 := cell(tab, "dist=1", "pm.writes")
	d4 := cell(tab, "dist=4", "pm.writes")
	d16 := cell(tab, "dist=16", "pm.writes")
	if d4 > d1+1e-9 {
		t.Fatalf("distance 4 should not write more than distance 1:\n%s", tab)
	}
	if d16 < d4*0.85 {
		t.Fatalf("distance 16 should not be much better than 4 (paper's knee):\n%s", tab)
	}
}

func TestAblationStructuresBiggerIsFasterOrEqual(t *testing.T) {
	tab := Sweep{Scale: tinyScale()}.AblationStructures("Q")
	small := cell(tab, "CL2x4,Dep2", "cycles")
	base := cell(tab, "CL4x8,Dep4", "cycles")
	big := cell(tab, "CL8x16,Dep8", "cycles")
	if base != 1 {
		t.Fatalf("base row must normalize to 1:\n%s", tab)
	}
	if small < base*0.98 {
		t.Fatalf("halving the structures should not speed ASAP up:\n%s", tab)
	}
	if big > base*1.05 {
		t.Fatalf("doubling the structures should not slow ASAP down:\n%s", tab)
	}
}

func TestCoRunningOrdering(t *testing.T) {
	scale := Scale{Threads: 2, OpsPerThread: 60, InitialItems: 96}
	tab := Sweep{Scale: scale}.CoRunning()
	asap := cell(tab, "ASAP", "ops/kcycle")
	sw := cell(tab, "SW", "ops/kcycle")
	np := cell(tab, "NP", "ops/kcycle")
	if !(asap > sw) {
		t.Fatalf("ASAP must beat SW when co-running:\n%s", tab)
	}
	if np < asap*0.95 {
		t.Fatalf("NP bounds ASAP:\n%s", tab)
	}
	// Traffic optimizations reduce co-run PM writes.
	if cell(tab, "ASAP", "pm.writes") >= cell(tab, "ASAP-No-Opt", "pm.writes") {
		t.Fatalf("optimizations must cut co-run traffic:\n%s", tab)
	}
}

func TestFenceSweepWaits(t *testing.T) {
	scale := Scale{Threads: 3, OpsPerThread: 80, InitialItems: 96}
	tab := Sweep{Scale: scale}.FenceSweep()
	free := cell(tab, "no fence", "ops/kcycle")
	every1 := cell(tab, "every 1", "ops/kcycle")
	if every1 > free+1e-9 {
		t.Fatalf("fencing cannot raise throughput here:\n%s", tab)
	}
	if cell(tab, "every 1", "wait/fence") <= 0 {
		t.Fatalf("per-op fences must absorb some wait:\n%s", tab)
	}
}

func TestLifetimeASAPBest(t *testing.T) {
	tab := Sweep{Scale: tinyScale("BN", "Q")}.Lifetime()
	g := func(c string) float64 { return cell(tab, "GeoMean", c) }
	if !(g("ASAP") > g("HWUndo") && g("ASAP") > g("HWRedo") && g("ASAP") > 1) {
		t.Fatalf("ASAP must project the longest lifetime:\n%s", tab)
	}
}

func TestDesignChoiceShape(t *testing.T) {
	tab := Sweep{Scale: tinyScale("Q", "HM")}.DesignChoice()
	g := func(c string) float64 { return cell(tab, "GeoMean", c) }
	// Both asynchronous-commit designs beat SW comfortably.
	if !(g("ASAP xSW") > 1.5 && g("ASAP-Redo xSW") > 1.5) {
		t.Fatalf("both async designs must beat SW:\n%s", tab)
	}
}

func TestNUMAShape(t *testing.T) {
	scale := Scale{Threads: 3, OpsPerThread: 80, InitialItems: 96}
	tab := Sweep{Scale: scale}.NUMA()
	// ASAP must tolerate remote channels at least as well as HWUndo.
	asap := cell(tab, "ASAP", "remote+800")
	undo := cell(tab, "HWUndo", "remote+800")
	if asap < undo-1e-9 {
		t.Fatalf("ASAP should be at least as NUMA-robust as HWUndo:\n%s", tab)
	}
	for _, s := range []string{"NP", "ASAP", "HWUndo", "HWRedo"} {
		if cell(tab, s, "UMA") != 1 {
			t.Fatalf("UMA column must normalize to 1:\n%s", tab)
		}
	}
}

func TestTailLatencyShape(t *testing.T) {
	scale := Scale{Threads: 4, OpsPerThread: 100, InitialItems: 96}
	tab := Sweep{Scale: scale}.TailLatency()
	// ASAP removes the fixed region-end wait: its p50/p95 track NP while
	// the synchronous baselines sit a bucket higher across the whole
	// distribution. (The extreme tail can show rare CL-List backpressure
	// stalls instead — reported, not asserted.)
	for _, q := range []string{"p50", "p95"} {
		asap := cell(tab, "ASAP", q)
		np := cell(tab, "NP", q)
		undo := cell(tab, "HWUndo", q)
		sw := cell(tab, "SW", q)
		if asap > np*1.05 {
			t.Fatalf("ASAP %s (%v) should track NP (%v):\n%s", q, asap, np, tab)
		}
		if !(sw > undo && undo > asap) {
			t.Fatalf("%s ordering SW > HWUndo > ASAP violated:\n%s", q, tab)
		}
	}
}

func TestScalingShape(t *testing.T) {
	scale := Scale{Threads: 4, OpsPerThread: 80, InitialItems: 96}
	tab := Sweep{Scale: scale}.Scaling()
	// At every thread count ASAP out-throughputs the synchronous schemes
	// on the lock-bound workload.
	for _, col := range []string{"1", "4", "8"} {
		if !(cell(tab, "ASAP", col) > cell(tab, "HWUndo", col) &&
			cell(tab, "HWUndo", col) > cell(tab, "SW", col)) {
			t.Fatalf("scaling ordering violated at %s threads:\n%s", col, tab)
		}
	}
}
