package queue

import (
	"asap/internal/iofault"
	"asap/internal/metrics"
)

// transitionLabel maps the queue's internal counter names
// ("queue.enqueued", ...) to the asapd_queue_transitions_total type
// label. Keeping one table here means /api/v1/stats counters and
// /metrics transitions can never disagree on taxonomy.
var transitionLabel = map[string]string{
	CtrEnqueued:    "enqueued",
	CtrLeased:      "leased",
	CtrAcked:       "acked",
	CtrFailed:      "failed",
	CtrRedelivered: "redelivered",
	CtrExpired:     "expired",
	CtrReleased:    "released",
	CtrDead:        "dead",
	CtrOrphaned:    "orphaned",
	CtrLeaseLost:   "lease_lost",
}

// svcMetrics is every instrument the daemon maintains, registered once
// against one registry. All pointers are used nil-safely (a daemon
// always builds this, but subsystem hooks tolerate absence so the
// queue/journal/store stay usable standalone).
type svcMetrics struct {
	reg *metrics.Registry

	journalAppends     *metrics.Counter
	journalAppendBytes *metrics.Counter
	journalSyncs       *metrics.Counter
	journalCompactions *metrics.Counter

	ioErrors *metrics.CounterVec
	degraded *metrics.Gauge

	transitions *metrics.CounterVec

	storePuts     *metrics.Counter
	storeDedup    *metrics.Counter
	storePutBytes *metrics.Counter

	execBusy       *metrics.Gauge
	execJobSeconds *metrics.Histogram
	heartbeats     *metrics.Counter

	httpRequests *metrics.CounterVec
	httpSeconds  *metrics.HistogramVec
}

// newSvcMetrics registers the daemon's metric families on reg. Naming
// follows DESIGN.md §14: asapd_<subsystem>_<what>_<unit>, counters end
// in _total, histograms use fixed pow2 bucket ladders so boundaries
// never move between versions.
func newSvcMetrics(reg *metrics.Registry) *svcMetrics {
	return &svcMetrics{
		reg: reg,

		journalAppends: reg.Counter("asapd_journal_appends_total",
			"Journal records appended (each is synced before the transition applies)."),
		journalAppendBytes: reg.Counter("asapd_journal_append_bytes_total",
			"Bytes appended to the journal, frames and CRCs included."),
		journalSyncs: reg.Counter("asapd_journal_syncs_total",
			"Journal medium syncs (one per append: write-ahead discipline)."),
		journalCompactions: reg.Counter("asapd_journal_compactions_total",
			"Journal compactions: a checkpoint file renamed over the journal."),

		ioErrors: reg.CounterVec("asapd_io_errors_total",
			"I/O failures on durable paths, by path (journal/store/resultcache) and fault class.",
			"path", "class"),
		degraded: reg.Gauge("asapd_degraded",
			"Disk-budget degraded level: 0 healthy, 1 soft (cache shed), 2 hard (intake refused)."),

		transitions: reg.CounterVec("asapd_queue_transitions_total",
			"Lease state-machine transitions by type.", "type"),

		storePuts: reg.Counter("asapd_store_puts_total",
			"Artifact store puts, dedup hits included."),
		storeDedup: reg.Counter("asapd_store_put_dedup_total",
			"Puts that hit an existing object (content address already present)."),
		storePutBytes: reg.Counter("asapd_store_put_bytes_total",
			"Bytes handed to Put (logical, before dedup)."),

		execBusy: reg.Gauge("asapd_exec_busy_workers",
			"Workers currently executing a leased job."),
		execJobSeconds: reg.Histogram("asapd_exec_job_seconds",
			"Job executor wall time.", metrics.Pow2Buckets(0.25, 12)),
		heartbeats: reg.Counter("asapd_exec_heartbeats_total",
			"Executor progress heartbeats (each extends the job's lease)."),

		httpRequests: reg.CounterVec("asapd_http_requests_total",
			"HTTP requests by route pattern and status code.", "route", "code"),
		httpSeconds: reg.HistogramVec("asapd_http_request_seconds",
			"HTTP request latency by route pattern.", metrics.Pow2Buckets(0.001, 13), "route"),
	}
}

// wire attaches the instruments to the daemon's subsystems and
// registers the scrape-time gauges. Called once from Open, after the
// journal/queue/store exist — counters already bumped during recovery
// (orphan expiry, replay) are synced in, so post-restart scrapes agree
// with the recovery report.
func (m *svcMetrics) wire(d *Daemon) {
	reg := m.reg

	if j := d.Q.Journal(); j != nil {
		j.setMetrics(m.journalAppends, m.journalAppendBytes, m.journalSyncs,
			m.journalCompactions, m.ioErrors)
		reg.GaugeFunc("asapd_journal_size_bytes",
			"Current journal size (header + all good records).",
			func() float64 { return float64(j.Size()) })
	}
	reg.Gauge("asapd_journal_replay_records",
		"Records recovered by the last journal replay.").Set(float64(d.JournalRep.Records))
	reg.Gauge("asapd_journal_replay_torn_bytes",
		"Trailing bytes discarded as a torn append by the last replay.").Set(float64(d.JournalRep.TornBytes))
	torn := reg.Counter("asapd_journal_torn_truncations_total", "Journal opens that truncated a torn tail.")
	if d.JournalRep.TornBytes > 0 {
		torn.Inc()
	}

	d.Q.setMetrics(m.transitions)
	d.St.metPuts, d.St.metDedup, d.St.metPutBytes = m.storePuts, m.storeDedup, m.storePutBytes
	d.St.blobs.SetErrorHook(func(err error) { m.ioErrors.With("store", iofault.Classify(err)).Inc() })

	depth := reg.GaugeVec("asapd_queue_depth", "Jobs by state (eligible = pending and past backoff gate).", "state")
	depth.WithFunc(func() float64 { return float64(d.Q.Depths().Pending) }, "pending")
	depth.WithFunc(func() float64 { return float64(d.Q.Depths().Eligible) }, "eligible")
	depth.WithFunc(func() float64 { return float64(d.Q.Depths().Leased) }, "leased")
	depth.WithFunc(func() float64 { return float64(d.Q.Depths().Done) }, "done")
	depth.WithFunc(func() float64 { return float64(d.Q.Depths().Dead) }, "dead")

	storeBytes := reg.GaugeVec("asapd_store_bytes",
		"On-disk footprint by store (journal = journal file; artifacts/resultcache = committed files).",
		"store")
	if j := d.Q.Journal(); j != nil {
		storeBytes.WithFunc(func() float64 { return float64(j.Size()) }, "journal")
	}
	storeBytes.WithFunc(func() float64 { return float64(d.St.Bytes()) }, "artifacts")
	if usage := d.cfg.CacheUsage; usage != nil {
		storeBytes.WithFunc(func() float64 { return float64(usage()) }, "resultcache")
	}

	reg.Gauge("asapd_exec_workers", "Configured worker pool size.").Set(float64(d.cfg.Workers))
	reg.GaugeFunc("asapd_uptime_seconds", "Seconds since daemon start.",
		func() float64 { return d.cfg.Clock().Sub(d.start).Seconds() })
	reg.GaugeFunc("asapd_draining", "1 while a drain is in progress.",
		func() float64 {
			if d.isDraining() {
				return 1
			}
			return 0
		})
}
