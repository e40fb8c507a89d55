package experiment

import (
	"fmt"

	"asap/internal/core"
	"asap/internal/machine"
	"asap/internal/obs"
	"asap/internal/report"
)

// WireGauges registers the standard occupancy gauges on rec: per-channel
// WPQ depth, arrival-queue backlog and LH-WPQ occupancy, plus — when s is
// the ASAP engine — the on-chip structure populations (live CL List and
// Dependence List entries, uncommitted regions, commit backlog) and the
// live undo-log bytes. Gauge closures only read state, so sampling never
// perturbs the run.
func WireGauges(rec *obs.Recorder, m *machine.Machine, s machine.Scheme) {
	for i, ch := range m.Fabric.Channels() {
		ch := ch
		rec.AddGauge(fmt.Sprintf("wpq%d", i), func() float64 { return float64(ch.Occupancy()) })
		rec.AddGauge(fmt.Sprintf("wpq%d.waiting", i), func() float64 { return float64(ch.Waiters()) })
		rec.AddGauge(fmt.Sprintf("lhwpq%d", i), func() float64 { return float64(ch.LH().Len()) })
	}
	if eng, ok := s.(*core.Engine); ok {
		rec.AddGauge("regions.active", func() float64 { return float64(eng.ActiveRegions()) })
		rec.AddGauge("deplist.live", func() float64 { return float64(eng.DepEntriesLive()) })
		rec.AddGauge("cllist.live", func() float64 { return float64(eng.CLEntriesLive()) })
		rec.AddGauge("log.bytes", func() float64 { return float64(eng.LogBytesLive()) })
		rec.AddGauge("commit.backlog", func() float64 { return float64(eng.CommitBacklog()) })
	}
}

// CycleAccounting runs bench once per Figure 7 scheme with a profiler
// attached and reduces the per-thread bucket charges to the percent-of-
// cycles table: where each scheme's simulated time actually goes. Every
// profiler is checked for the exactness invariant before reduction.
func (sw Sweep) CycleAccounting(bench string, valueBytes int) string {
	profs := make([]*obs.Profiler, len(fig7Schemes))
	sw.grid("cycles", 1, len(fig7Schemes), func(_, c int) runSpec {
		profs[c] = obs.NewProfiler()
		s := sw.cell(Variant{Scheme: fig7Schemes[c], Obs: &obs.Session{Prof: profs[c]}}, bench, "")
		s.valueBytes = valueBytes
		return s
	})

	d := report.CycleData{
		Title:       fmt.Sprintf("Cycle accounting: %s, %d B values (percent of all thread-cycles)", bench, valueBytes),
		Cols:        fig7Schemes,
		Buckets:     obs.BucketNames(),
		TotalCycles: make([]uint64, len(fig7Schemes)),
	}
	d.Share = make([][]float64, obs.NumBuckets)
	for b := range d.Share {
		d.Share[b] = make([]float64, len(fig7Schemes))
	}
	for c, p := range profs {
		if err := p.Check(); err != nil {
			panic(err)
		}
		per, total := p.Totals()
		d.TotalCycles[c] = total
		if total == 0 {
			continue
		}
		for b, n := range per {
			d.Share[b][c] = float64(n) / float64(total)
		}
	}
	return report.CycleAccounting(d)
}
