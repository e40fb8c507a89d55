package experiment

import (
	"fmt"
	"strings"

	"asap/internal/core"
	"asap/internal/machine"
	"asap/internal/resultcache"
	"asap/internal/stats"
	"asap/internal/workload"
)

// The experiments in this file go beyond the paper's figures: ablations of
// ASAP's design constants (the choices §4.6.2 and Table 2 fix
// empirically), the co-running throughput claim of §1, the asap_fence
// degeneration noted in §6.4, and the PM-lifetime framing of §5.1.
// Like the figures, each fans its run matrix across the package pool.

// AblationCoalesce sweeps the DPO coalescing distance. The paper picks 4:
// "no benefit has been observed [at] a distance larger than four"
// (§4.6.2). Values are PM writes and cycles normalized to distance 4.
func AblationCoalesce(scale Scale, bench string) *Table {
	distances := []int{1, 2, 4, 8, 16}
	t := &Table{
		Title:   "Ablation: DPO coalescing distance on " + bench,
		Note:    "normalized to the paper's distance 4; §4.6.2 predicts a knee at 4",
		Columns: []string{"pm.writes", "cycles", "dpo.coalesced"},
	}
	var specs []runSpec
	for _, d := range distances {
		opt := core.DefaultOptions()
		opt.CoalesceDistance = d
		specs = append(specs, runSpec{
			v: Variant{Scheme: "ASAP", ASAPOpts: &opt}, bench: bench, scale: scale,
			valueBytes: 64, label: fmt.Sprintf("%s/dist=%d", bench, d),
		})
	}
	res := runAll("ablation-coalesce", specs)
	type point struct{ writes, cycles, coal float64 }
	pts := map[int]point{}
	for i, d := range distances {
		r := res[i]
		pts[d] = point{
			writes: float64(r.Stats[stats.PMWrites]),
			cycles: float64(r.Cycles),
			coal:   float64(r.Stats[stats.DPOsCoalesce]),
		}
	}
	base := pts[4]
	for _, d := range distances {
		p := pts[d]
		coal := p.coal
		if base.coal > 0 {
			coal = p.coal / base.coal
		}
		t.AddRow(fmt.Sprintf("dist=%d", d), p.writes/base.writes, p.cycles/base.cycles, coal)
	}
	return t
}

// AblationStructures sweeps the CL List and Dep slot sizing (Table 2 fixes
// 4 entries x 8 CLPtrs and 4 Dep slots) and reports the stall counts and
// run time each choice produces.
func AblationStructures(scale Scale, bench string) *Table {
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
	var specs []runSpec
	for _, c := range configs {
		opt := core.DefaultOptions()
		opt.CLListEntries, opt.CLPtrSlots, opt.DepSlots = c.clEntries, c.slots, c.depSlots
		specs = append(specs, runSpec{
			v: Variant{Scheme: "ASAP", ASAPOpts: &opt}, bench: bench, scale: scale,
			valueBytes: 64, label: bench + "/" + c.name,
		})
	}
	res := runAll("ablation-structs", specs)
	var base float64
	for i, c := range configs {
		r := res[i]
		if c.name == "CL4x8,Dep4" {
			base = float64(r.Cycles)
		}
		t.AddRow(c.name, float64(r.Cycles),
			float64(r.Stats[stats.CLStalls]),
			float64(r.Stats[stats.DepStalls]),
			float64(r.Stats[stats.LHWPQStalls]))
	}
	// Normalize the cycles column after the base is known.
	for i := range t.Rows {
		t.Rows[i].Values[0] /= base
	}
	return t
}

// CoRunning measures combined throughput when several memory-intensive
// benchmarks share the machine — where §1 argues ASAP's traffic reduction
// pays off. Values are combined ops/kcycle.
func CoRunning(scale Scale) *Table {
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
	var specs []runSpec
	for _, v := range variants {
		var benches []workload.Benchmark
		for _, name := range mix {
			benches = append(benches, workload.ByName(name))
		}
		specs = append(specs, runSpec{
			v: v.v, benches: benches, scale: scale, valueBytes: 64, label: v.name,
			cacheKey: resultcache.NewKey().
				Field("kind", "corun.v2").
				Field("variant", v.name).
				Field("mix", strings.Join(mix, ",")).
				Fieldf("threads", "%d", scale.Threads).
				Fieldf("ops", "%d", scale.OpsPerThread).
				Fieldf("items", "%d", scale.InitialItems),
		})
	}
	res := runAll("corun", specs)
	for i, v := range variants {
		t.AddRow(v.name, res[i].Throughput(), float64(res[i].Stats[stats.PMWrites]))
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
func FenceSweep(scale Scale) *Table {
	t := &Table{
		Title:   "Extension: asap_fence frequency on Q",
		Note:    "§6.4: 'if asap_fence is used, then ASAP degenerates to HWUndo'",
		Columns: []string{"ops/kcycle", "wait/fence"},
	}
	periods := []int{0, 16, 4, 1}
	var specs []runSpec
	for _, p := range periods {
		specs = append(specs, runSpec{
			// Moderate PM pressure (4x) so commits lag region ends and a fence
			// genuinely waits, without saturating the WPQ outright. (Under a
			// fully saturated WPQ fencing can even help, by pacing submissions
			// so the §5.1 drops keep firing — an emergent effect worth knowing
			// about, but not this table's.)
			v: Variant{Scheme: "ASAP", PMMult: 4}, bench: "Q", scale: scale, valueBytes: 64,
			label: fmt.Sprintf("Q/period=%d", p),
			// The cell's only inputs beyond the fixed fences.v1 recipe
			// are the fence period, the scale, and the seed.
			cacheKey: resultcache.NewKey().
				Field("kind", "fences.v1").
				Fieldf("period", "%d", p).
				Fieldf("threads", "%d", scale.Threads).
				Fieldf("ops", "%d", scale.OpsPerThread).
				Fieldf("items", "%d", scale.InitialItems),
			edit: func(mc *machine.Config, cfg *workload.Config) {
				mc.Mem.Controllers, mc.Mem.ChannelsPerMC = 1, 2
				cfg.FencePeriod = p
			},
		})
	}
	res := runAll("fences", specs)
	for i, p := range periods {
		r := res[i]
		name := "no fence"
		if p > 0 {
			name = fmt.Sprintf("every %d", p)
		}
		wait := 0.0
		if n := r.Stats[stats.Fences]; n > 0 {
			wait = float64(r.Stats[stats.FenceCycles]) / float64(n)
		}
		t.AddRow(name, r.Throughput(), wait)
	}
	return t
}

// DesignChoice compares the two asynchronous-commit designs the paper
// weighs in §3: undo-based ASAP (chosen — more eager DPOs, no read
// redirection) against redo-based ASAP-Redo (sketched in Figure 2c).
// Values are speedup over SW and PM write traffic normalized to ASAP.
func DesignChoice(scale Scale) *Table {
	t := &Table{
		Title:   "Extension: undo vs redo asynchronous commit (the §3 design choice)",
		Note:    "ASAP (undo) chosen by the paper for eager DPOs and direct reads",
		Columns: []string{"ASAP xSW", "ASAP-Redo xSW", "ASAP traffic", "ASAP-Redo traffic"},
	}
	order := []string{"SW", "ASAP", "ASAP-Redo"}
	var specs []runSpec
	for _, b := range scale.Benchmarks {
		for _, s := range order {
			specs = append(specs, runSpec{v: Variant{Scheme: s}, bench: b, scale: scale, valueBytes: 64})
		}
	}
	res := runAll("design", specs)
	ns := len(order)
	for i, b := range scale.Benchmarks {
		sw, undo, redo := res[i*ns], res[i*ns+1], res[i*ns+2]
		ut := float64(undo.Stats[stats.PMWrites])
		t.AddRow(b,
			float64(sw.Cycles)/float64(undo.Cycles),
			float64(sw.Cycles)/float64(redo.Cycles),
			1,
			float64(redo.Stats[stats.PMWrites])/ut)
	}
	t.AddGeoMean()
	return t
}

// Lifetime derives the §5.1 framing: PM endurance improves in proportion
// to the write-traffic reduction. Values are the projected lifetime factor
// relative to SW for one run of every benchmark.
func Lifetime(scale Scale) *Table {
	t := &Table{
		Title:   "Extension: projected PM lifetime factor (writes relative to SW, inverted)",
		Note:    "wear-leveled endurance scales with 1/write-traffic (§5.1, §1)",
		Columns: []string{"SW", "HWRedo", "HWUndo", "ASAP"},
	}
	order := []string{"SW", "HWRedo", "HWUndo", "ASAP"}
	var specs []runSpec
	for _, b := range scale.Benchmarks {
		for _, s := range order {
			specs = append(specs, runSpec{v: Variant{Scheme: s}, bench: b, scale: scale, valueBytes: 64})
		}
	}
	res := runAll("lifetime", specs)
	ns := len(order)
	for i, b := range scale.Benchmarks {
		sw := float64(res[i*ns].Stats[stats.PMWrites])
		redo := float64(res[i*ns+1].Stats[stats.PMWrites])
		undo := float64(res[i*ns+2].Stats[stats.PMWrites])
		asap := float64(res[i*ns+3].Stats[stats.PMWrites])
		t.AddRow(b, 1, sw/redo, sw/undo, sw/asap)
	}
	t.AddGeoMean()
	return t
}

// TailLatency measures region-latency percentiles on Q — the datacenter
// tail-latency concern the paper's introduction leads with (§1): a
// synchronous commit puts every persist wait on some region's critical
// path, and the occasional slow one lands in the tail. Values are cycles
// (power-of-two bucket upper bounds).
func TailLatency(scale Scale) *Table {
	t := &Table{
		Title:   "Extension: atomic-region latency percentiles on Q (cycles)",
		Note:    "§1: tail latency motivates asynchronous commit; ASAP's tail tracks NP's",
		Columns: []string{"p50", "p95", "p99"},
	}
	order := []string{"NP", "ASAP", "HWUndo", "HWRedo", "SW"}
	var specs []runSpec
	for _, s := range order {
		specs = append(specs, runSpec{v: Variant{Scheme: s}, bench: "Q", scale: scale, valueBytes: 64})
	}
	res := runAll("tail", specs)
	for i, s := range order {
		r := res[i]
		t.AddRow(s, float64(r.RegionP50), float64(r.RegionP95), float64(r.RegionP99))
	}
	return t
}

// NUMA quantifies the §7.3 remark that ASAP's insensitivity to persist
// latency also suits NUMA systems, where reaching a remote node's memory
// controller costs an interconnect hop. Values are throughput on Q,
// normalized per scheme to its own UMA run — lower means the scheme pays
// for the remote channels.
func NUMA(scale Scale) *Table {
	t := &Table{
		Title:   "Extension: NUMA sensitivity on Q (throughput vs own UMA run)",
		Note:    "§7.3: ASAP's persist latency is off the critical path, so remote channels barely hurt",
		Columns: []string{"UMA", "remote+200", "remote+800"},
	}
	order := []string{"NP", "ASAP", "HWUndo", "HWRedo"}
	penalties := []uint64{0, 200, 800}
	var specs []runSpec
	for _, s := range order {
		for _, penalty := range penalties {
			specs = append(specs, runSpec{
				v: Variant{Scheme: s}, bench: "Q", scale: scale, valueBytes: 64,
				label: fmt.Sprintf("Q/%s+%d", s, penalty),
				cacheKey: resultcache.NewKey().
					Field("kind", "numa.v1").
					Field("scheme", s).
					Fieldf("penalty", "%d", penalty).
					Fieldf("threads", "%d", scale.Threads).
					Fieldf("ops", "%d", scale.OpsPerThread).
					Fieldf("items", "%d", scale.InitialItems),
				edit: func(mc *machine.Config, _ *workload.Config) { mc.Mem.NUMARemotePenalty = penalty },
			})
		}
	}
	res := runAll("numa", specs)
	np := len(penalties)
	for i, s := range order {
		base := res[i*np].Throughput()
		var vals []float64
		for j := range penalties {
			vals = append(vals, res[i*np+j].Throughput()/base)
		}
		t.AddRow(s, vals...)
	}
	return t
}

// Scaling measures throughput versus worker count on Q, whose single
// global lock makes every region a critical section — quantifying §2.1:
// "high latency atomic regions translate into high latency critical
// sections and consequently more lock contention". Values are combined
// ops/kcycle; the synchronous schemes' region-end waits serialize inside
// the lock, so their curves flatten first.
func Scaling(scale Scale) *Table {
	threads := []int{1, 2, 4, 8}
	t := &Table{
		Title:   "Extension: lock-contention scaling on Q (ops/kcycle)",
		Note:    "§2.1: persist latency inside critical sections throttles concurrency",
		Columns: []string{"1", "2", "4", "8"},
	}
	order := []string{"NP", "ASAP", "HWUndo", "SW"}
	var specs []runSpec
	for _, s := range order {
		for _, n := range threads {
			sc := scale
			sc.Threads = n
			specs = append(specs, runSpec{
				v: Variant{Scheme: s, PMMult: 4}, bench: "Q", scale: sc,
				valueBytes: 64, label: fmt.Sprintf("Q/%s/t%d", s, n),
			})
		}
	}
	res := runAll("scaling", specs)
	nt := len(threads)
	for i, s := range order {
		var vals []float64
		for j := range threads {
			vals = append(vals, res[i*nt+j].Throughput())
		}
		t.AddRow(s, vals...)
	}
	return t
}
