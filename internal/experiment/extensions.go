package experiment

import (
	"fmt"
	"strings"

	"asap/internal/core"
	"asap/internal/machine"
	"asap/internal/stats"
	"asap/internal/workload"
)

// The experiments in this file go beyond the paper's figures: ablations of
// ASAP's design constants (the choices §4.6.2 and Table 2 fix
// empirically), the co-running throughput claim of §1, the asap_fence
// degeneration noted in §6.4, and the PM-lifetime framing of §5.1.
// Like the figures, each runs its cells as one grid on the sweep's pool.

// AblationCoalesce sweeps the DPO coalescing distance. The paper picks 4:
// "no benefit has been observed [at] a distance larger than four"
// (§4.6.2). Values are PM writes and cycles normalized to distance 4.
func (sw Sweep) AblationCoalesce(bench string) *Table {
	distances := []int{1, 2, 4, 8, 16}
	t := &Table{
		Title:   "Ablation: DPO coalescing distance on " + bench,
		Note:    "normalized to the paper's distance 4; §4.6.2 predicts a knee at 4",
		Columns: []string{"pm.writes", "cycles", "dpo.coalesced"},
	}
	res := sw.grid("ablation-coalesce", len(distances), 1, func(r, _ int) runSpec {
		opt := core.DefaultOptions()
		opt.CoalesceDistance = distances[r]
		return sw.cell(Variant{Scheme: "ASAP", ASAPOpts: &opt}, bench, fmt.Sprintf("%s/dist=%d", bench, distances[r]))
	})
	base := res[2][0] // distances[2] == 4
	for r, d := range distances {
		x := res[r][0]
		coal := float64(x.Stats[stats.DPOsCoalesce])
		if b := base.Stats[stats.DPOsCoalesce]; b > 0 {
			coal /= float64(b)
		}
		t.AddRow(fmt.Sprintf("dist=%d", d), pmWrites(x)/pmWrites(base), cycles(x)/cycles(base), coal)
	}
	return t
}

// AblationStructures sweeps the CL List and Dep slot sizing (Table 2 fixes
// 4 entries x 8 CLPtrs and 4 Dep slots) and reports the stall counts and
// run time each choice produces.
func (sw Sweep) AblationStructures(bench string) *Table {
	t := &Table{
		Title:   "Ablation: hardware structure sizing on " + bench,
		Note:    "cycles normalized to the Table 2 configuration; stalls are absolute counts",
		Columns: []string{"cycles", "stall.clptr", "stall.depslots", "stall.lhwpq"},
	}
	configs := []struct {
		name             string
		clEntries, slots int
		depSlots         int
	}{
		{"CL2x4,Dep2", 2, 4, 2},
		{"CL4x8,Dep4", 4, 8, 4}, // Table 2
		{"CL8x16,Dep8", 8, 16, 8},
	}
	res := sw.grid("ablation-structs", len(configs), 1, func(r, _ int) runSpec {
		c := configs[r]
		opt := core.DefaultOptions()
		opt.CLListEntries, opt.CLPtrSlots, opt.DepSlots = c.clEntries, c.slots, c.depSlots
		return sw.cell(Variant{Scheme: "ASAP", ASAPOpts: &opt}, bench, bench+"/"+c.name)
	})
	base := res[1][0] // configs[1] is Table 2's
	for r, c := range configs {
		x := res[r][0]
		t.AddRow(c.name, cycles(x)/cycles(base),
			float64(x.Stats[stats.CLStalls]),
			float64(x.Stats[stats.DepStalls]),
			float64(x.Stats[stats.LHWPQStalls]))
	}
	return t
}

// CoRunning measures combined throughput when several memory-intensive
// benchmarks share the machine — where §1 argues ASAP's traffic reduction
// pays off. Values are combined ops/kcycle.
func (sw Sweep) CoRunning() *Table {
	mix := []string{"Q", "HM", "SS"}
	t := &Table{
		Title:   "Extension: co-running throughput (Q + HM + SS sharing the machine)",
		Note:    "combined ops/kcycle; ASAP's traffic optimizations free PM bandwidth for the mix",
		Columns: []string{"ops/kcycle", "pm.writes"},
	}
	noOpt := core.DefaultOptions()
	noOpt.Coalescing, noOpt.LPODropping, noOpt.DPODropping = false, false, false
	variants := []struct {
		name string
		v    Variant
	}{
		{"SW", Variant{Scheme: "SW"}},
		{"HWUndo", Variant{Scheme: "HWUndo"}},
		{"HWRedo", Variant{Scheme: "HWRedo"}},
		{"ASAP-No-Opt", Variant{Scheme: "ASAP", ASAPOpts: &noOpt}},
		{"ASAP", Variant{Scheme: "ASAP"}},
		{"NP", Variant{Scheme: "NP"}},
	}
	res := sw.grid("corun", len(variants), 1, func(r, _ int) runSpec {
		s := sw.cell(variants[r].v, "", variants[r].name)
		for _, name := range mix {
			s.benches = append(s.benches, workload.ByName(name))
		}
		s.cacheKey = sw.customKey("corun.v2").
			Field("variant", variants[r].name).
			Field("mix", strings.Join(mix, ","))
		return s
	})
	for r, v := range variants {
		x := res[r][0]
		t.AddRow(v.name, x.Throughput(), pmWrites(x))
	}
	return t
}

// FenceSweep quantifies §5.2/§6.4: with an asap_fence after every N
// regions ASAP trades back toward synchronous behaviour. Two metrics on
// Q: throughput, and the mean time a fence actually blocks. In the
// ADR/WPQ-accept persistence model commits usually complete before the
// next fence arrives, so the throughput cost only materializes when the
// memory system is pressured — the wait column shows the latency that
// fences do absorb.
func (sw Sweep) FenceSweep() *Table {
	t := &Table{
		Title:   "Extension: asap_fence frequency on Q",
		Note:    "§6.4: 'if asap_fence is used, then ASAP degenerates to HWUndo'",
		Columns: []string{"ops/kcycle", "wait/fence"},
	}
	periods := []int{0, 16, 4, 1}
	res := sw.grid("fences", len(periods), 1, func(r, _ int) runSpec {
		p := periods[r]
		// Moderate PM pressure (4x) so commits lag region ends and a fence
		// genuinely waits, without saturating the WPQ outright. (Under a
		// fully saturated WPQ fencing can even help, by pacing submissions
		// so the §5.1 drops keep firing — an emergent effect worth knowing
		// about, but not this table's.)
		s := sw.cell(Variant{Scheme: "ASAP", PMMult: 4}, "Q", fmt.Sprintf("Q/period=%d", p))
		// The cell's only inputs beyond the fixed fences.v1 recipe are
		// the fence period, the scale, and the seed.
		s.cacheKey = sw.customKey("fences.v1").Fieldf("period", "%d", p)
		s.edit = func(mc *machine.Config, cfg *workload.Config) {
			mc.Mem.Controllers, mc.Mem.ChannelsPerMC = 1, 2
			cfg.FencePeriod = p
		}
		return s
	})
	for r, p := range periods {
		x := res[r][0]
		name := "no fence"
		if p > 0 {
			name = fmt.Sprintf("every %d", p)
		}
		wait := 0.0
		if n := x.Stats[stats.Fences]; n > 0 {
			wait = float64(x.Stats[stats.FenceCycles]) / float64(n)
		}
		t.AddRow(name, x.Throughput(), wait)
	}
	return t
}

// DesignChoice compares the two asynchronous-commit designs the paper
// weighs in §3: undo-based ASAP (chosen — more eager DPOs, no read
// redirection) against redo-based ASAP-Redo (sketched in Figure 2c).
// Values are speedup over SW and PM write traffic normalized to ASAP.
func (sw Sweep) DesignChoice() *Table {
	t := &Table{
		Title:   "Extension: undo vs redo asynchronous commit (the §3 design choice)",
		Note:    "ASAP (undo) chosen by the paper for eager DPOs and direct reads",
		Columns: []string{"ASAP xSW", "ASAP-Redo xSW", "ASAP traffic", "ASAP-Redo traffic"},
	}
	benches := sw.Scale.Benchmarks
	for r, row := range sw.schemeGrid("design", benches, []string{"SW", "ASAP", "ASAP-Redo"}, 64) {
		async := row[1:] // ASAP, ASAP-Redo
		t.AddRow(benches[r], append(inv(async, row[0], cycles), norm(async, async[0], pmWrites)...)...)
	}
	t.AddGeoMean()
	return t
}

// Lifetime derives the §5.1 framing: PM endurance improves in proportion
// to the write-traffic reduction. Values are the projected lifetime factor
// relative to SW for one run of every benchmark.
func (sw Sweep) Lifetime() *Table {
	order := []string{"SW", "HWRedo", "HWUndo", "ASAP"}
	t := &Table{
		Title:   "Extension: projected PM lifetime factor (writes relative to SW, inverted)",
		Note:    "wear-leveled endurance scales with 1/write-traffic (§5.1, §1)",
		Columns: order,
	}
	benches := sw.Scale.Benchmarks
	for r, row := range sw.schemeGrid("lifetime", benches, order, 64) {
		t.AddRow(benches[r], inv(row, row[0], pmWrites)...) // order[0] == "SW"
	}
	t.AddGeoMean()
	return t
}

// TailLatency measures region-latency percentiles on Q — the datacenter
// tail-latency concern the paper's introduction leads with (§1): a
// synchronous commit puts every persist wait on some region's critical
// path, and the occasional slow one lands in the tail. Values are cycles
// (power-of-two bucket upper bounds).
func (sw Sweep) TailLatency() *Table {
	t := &Table{
		Title:   "Extension: atomic-region latency percentiles on Q (cycles)",
		Note:    "§1: tail latency motivates asynchronous commit; ASAP's tail tracks NP's",
		Columns: []string{"p50", "p95", "p99"},
	}
	order := []string{"NP", "ASAP", "HWUndo", "HWRedo", "SW"}
	row := sw.schemeGrid("tail", []string{"Q"}, order, 64)[0]
	for c, s := range order {
		x := row[c]
		t.AddRow(s, float64(x.RegionP50), float64(x.RegionP95), float64(x.RegionP99))
	}
	return t
}

// NUMA quantifies the §7.3 remark that ASAP's insensitivity to persist
// latency also suits NUMA systems, where reaching a remote node's memory
// controller costs an interconnect hop. Values are throughput on Q,
// normalized per scheme to its own UMA run — lower means the scheme pays
// for the remote channels.
func (sw Sweep) NUMA() *Table {
	t := &Table{
		Title:   "Extension: NUMA sensitivity on Q (throughput vs own UMA run)",
		Note:    "§7.3: ASAP's persist latency is off the critical path, so remote channels barely hurt",
		Columns: []string{"UMA", "remote+200", "remote+800"},
	}
	order := []string{"NP", "ASAP", "HWUndo", "HWRedo"}
	penalties := []uint64{0, 200, 800}
	res := sw.grid("numa", len(order), len(penalties), func(r, c int) runSpec {
		scheme, penalty := order[r], penalties[c]
		s := sw.cell(Variant{Scheme: scheme}, "Q", fmt.Sprintf("Q/%s+%d", scheme, penalty))
		s.cacheKey = sw.customKey("numa.v1").
			Field("scheme", scheme).
			Fieldf("penalty", "%d", penalty)
		s.edit = func(mc *machine.Config, _ *workload.Config) { mc.Mem.NUMARemotePenalty = penalty }
		return s
	})
	for r, row := range res {
		t.AddRow(order[r], norm(row, row[0], workload.Result.Throughput)...) // penalties[0] is UMA
	}
	return t
}

// Scaling measures throughput versus worker count on Q, whose single
// global lock makes every region a critical section — quantifying §2.1:
// "high latency atomic regions translate into high latency critical
// sections and consequently more lock contention". Values are combined
// ops/kcycle; the synchronous schemes' region-end waits serialize inside
// the lock, so their curves flatten first.
func (sw Sweep) Scaling() *Table {
	threads := []int{1, 2, 4, 8}
	t := &Table{
		Title:   "Extension: lock-contention scaling on Q (ops/kcycle)",
		Note:    "§2.1: persist latency inside critical sections throttles concurrency",
		Columns: []string{"1", "2", "4", "8"},
	}
	order := []string{"NP", "ASAP", "HWUndo", "SW"}
	res := sw.grid("scaling", len(order), len(threads), func(r, c int) runSpec {
		s := sw.cell(Variant{Scheme: order[r], PMMult: 4}, "Q", fmt.Sprintf("Q/%s/t%d", order[r], threads[c]))
		s.scale.Threads = threads[c]
		return s
	})
	for r, row := range res {
		t.AddRow(order[r], metric(row, workload.Result.Throughput)...)
	}
	return t
}
