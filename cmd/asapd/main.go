// Command asapd is the experiment service: a long-lived daemon that
// accepts sweep specs over HTTP, journals them durably before
// acknowledging, fans execution across a worker pool, and serves results
// from a content-addressed store. Jobs run the same internal/sweep code
// path as cmd/asapbench, so a sweep submitted here — even one the daemon
// was kill -9ed in the middle of — completes with output byte-identical
// to the one-shot CLI.
//
// Usage:
//
//	asapd -addr :8372 -dir /var/lib/asapd       # serve
//	asapd -campaign 200 -seed 7                 # run the kill campaign
//	asapd -iocampaign 300 -seed 7               # run the hostile-I/O campaign
//	asapd -campaign 20 -seed 3 -control         # a negative control (any campaign)
//
// Submit and fetch a sweep:
//
//	curl -d '{"experiments":["fig7"],"scale":"quick"}' localhost:8372/api/v1/jobs
//	curl localhost:8372/api/v1/jobs/1
//	curl localhost:8372/api/v1/jobs/1/result
//
// Crash safety: every queue transition is journaled (CRC-framed,
// fsynced) before it is applied. Restarting after any kind of death
// replays the journal, expires the orphaned leases, and resumes the
// queue; completed work is never re-run and never lost. SIGINT/SIGTERM
// drain gracefully: intake stops with 503, in-flight sweeps get
// -drain-grace to finish, then are checkpointed back to pending
// (uncharged) for the next start.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"asap/internal/campaign"
	"asap/internal/iofault"
	"asap/internal/metrics"
	"asap/internal/queue"
	"asap/internal/report"
	"asap/internal/resultcache"
	"asap/internal/runner"
	"asap/internal/sweep"
)

func main() { os.Exit(run()) }

func run() int {
	addr := flag.String("addr", ":8372", "HTTP listen address")
	dir := flag.String("dir", "asapd-data", "data directory (journal + artifact store)")
	workers := flag.Int("workers", 2, "concurrent job executors")
	lease := flag.Duration("lease", 5*time.Minute, "lease timeout before a stalled job is redelivered")
	maxDeliveries := flag.Int("max-deliveries", 5, "deliveries before a job is dead-lettered")
	backoffBase := flag.Duration("backoff-base", 250*time.Millisecond, "retry backoff after the first failure")
	backoffCap := flag.Duration("backoff-cap", 30*time.Second, "retry backoff ceiling")
	drainGrace := flag.Duration("drain-grace", time.Minute, "how long a drain waits for in-flight jobs before checkpointing them")
	cacheDir := flag.String("cache-dir", "", "result-cache directory (default: <dir>/resultcache)")
	noCache := flag.Bool("no-cache", false, "run sweeps without the result cache")
	killCases := flag.Int("campaign", 0, "run N seeded kill/restart fault-campaign cases instead of serving")
	ioCases := flag.Int("iocampaign", 0, "run N seeded hostile-I/O fault-injection cases instead of serving")
	control := flag.Bool("control", false, "run the campaign's negative control (no journal for -campaign, no append rollback for -iocampaign); its audit MUST then find damage")
	seed := flag.Int64("seed", 1, "fault campaign seed")
	journalCompact := flag.Int64("journal-compact", 0, "journal compaction threshold in bytes (0 = default, negative disables compaction)")
	budgetJournalSoft := flag.Int64("budget-journal-soft", 0, "journal soft disk budget in bytes (0 disables)")
	budgetJournalHard := flag.Int64("budget-journal-hard", 0, "journal hard disk budget in bytes (0 disables)")
	budgetStoreSoft := flag.Int64("budget-store-soft", 0, "artifact-store soft disk budget in bytes (0 disables)")
	budgetStoreHard := flag.Int64("budget-store-hard", 0, "artifact-store hard disk budget in bytes (0 disables)")
	budgetCacheSoft := flag.Int64("budget-cache-soft", 0, "result-cache soft disk budget in bytes (0 disables)")
	budgetCacheHard := flag.Int64("budget-cache-hard", 0, "result-cache hard disk budget in bytes (0 disables)")
	logFormat := flag.String("log-format", "text", "structured log format: text or json")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
	flag.Parse()

	logger, err := newLogger(*logFormat, *logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "asapd: %v\n", err)
		return 2
	}
	slog.SetDefault(logger)

	if *killCases > 0 {
		return runCampaign(os.Stdout, campaign.Kill, campaign.Config{Cases: *killCases, Seed: *seed, Control: *control})
	}
	if *ioCases > 0 {
		return runCampaign(os.Stdout, campaign.IO, campaign.Config{Cases: *ioCases, Seed: *seed, Control: *control})
	}

	// The result cache lives beside the artifact store by default: both
	// are iofault.Blobs namespaces, and a redelivered or resubmitted
	// sweep re-renders from cached cells instead of resimulating.
	if *cacheDir == "" {
		*cacheDir = filepath.Join(*dir, "resultcache")
	}
	cache, codeVersion, err := resultcache.OpenCLI(os.Stderr, "asapd", *cacheDir, *noCache)
	if err != nil {
		logger.Error("result cache open failed", "dir", *cacheDir, "error", err)
		return 1
	}

	reg := metrics.NewRegistry()
	observeRuns := reg.CounterVec("asapd_observe_runs_total",
		"Observe runs (profile/timeline/series artifacts) by source: read from the result cache or computed by simulation.",
		"source")
	cfg := queue.Config{
		Dir:     *dir,
		Workers: *workers,
		Policy: queue.Policy{
			MaxDeliveries: *maxDeliveries,
			LeaseTimeout:  *lease,
			BackoffBase:   *backoffBase,
			BackoffCap:    *backoffCap,
		},
		Exec:              newSweepExec(cache, codeVersion, observeRuns),
		Validate:          validateSpec,
		Logger:            logger,
		Metrics:           reg,
		ResultContentType: "text/plain; charset=utf-8",

		JournalCompactBytes: *journalCompact,
		Budget: queue.BudgetConfig{
			Journal: queue.StoreBudget{Soft: *budgetJournalSoft, Hard: *budgetJournalHard},
			Store:   queue.StoreBudget{Soft: *budgetStoreSoft, Hard: *budgetStoreHard},
			Cache:   queue.StoreBudget{Soft: *budgetCacheSoft, Hard: *budgetCacheHard},
		},
	}
	if cache != nil {
		// Degraded mode sheds the result cache first: it is the one store
		// whose contents are pure recompute cost, never lost results.
		cfg.CacheUsage = cache.Bytes
		cfg.CacheShed = cache.Shed
	}
	d, err := queue.Open(cfg)
	if err != nil {
		logger.Error("open failed", "error", err)
		return 1
	}
	if cache != nil {
		// The daemon registered this family and its help text.
		ioErrs := d.Metrics.CounterVec("asapd_io_errors_total", "", "path", "class")
		cache.SetErrorHook(func(err error) {
			ioErrs.With("resultcache", iofault.Classify(err)).Inc()
		})
		d.Metrics.GaugeFunc("asapd_resultcache_hits",
			"Result-cache entry hits since start: cells re-rendered without simulation, plus observe-artifact entries (three per observe lookup).",
			func() float64 { h, _, _ := cache.Stats(); return float64(h) })
		d.Metrics.GaugeFunc("asapd_resultcache_misses",
			"Result-cache entry misses since start: cells simulated, plus observe-artifact entries (three per observe lookup).",
			func() float64 { _, m, _ := cache.Stats(); return float64(m) })
		logger.Info("result cache open", "dir", *cacheDir, "code_version", codeVersion)
	}
	if d.Recovered.Jobs > 0 || d.JournalRep.TornBytes > 0 {
		logger.Info("recovered",
			"jobs", d.Recovered.Jobs, "pending", d.Recovered.Pending,
			"done", d.Recovered.Done, "dead", d.Recovered.Dead,
			"orphaned", d.Recovered.Orphaned, "torn_bytes", d.JournalRep.TornBytes)
	}
	d.Start()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Error("listen failed", "addr", *addr, "error", err)
		return 1
	}
	srv := &http.Server{Handler: d.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	logger.Info("serving", "addr", ln.Addr().String(), "dir", *dir, "workers", *workers)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
	case err := <-serveErr:
		logger.Error("serve failed", "error", err)
		return 1
	}

	// Graceful drain: stop intake (new submissions already 503 once the
	// drain flag is up), give in-flight sweeps the grace period, then
	// checkpoint whatever is still running and flush the journal.
	logger.Info("signal received, draining", "grace", *drainGrace)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainGrace)
	defer cancel()
	drainErr := d.Drain(drainCtx)
	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	srv.Shutdown(shutCtx)
	if drainErr != nil {
		logger.Error("drain failed", "error", drainErr)
		return 1
	}
	logger.Info("drained cleanly")
	return 0
}

// newLogger builds the structured event logger from the CLI flags.
func newLogger(format, level string) (*slog.Logger, error) {
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q: %w", level, err)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	}
	return nil, fmt.Errorf("bad -log-format %q (want text or json)", format)
}

// validateSpec gates intake: a spec that does not parse and validate as
// a sweep never reaches the journal.
func validateSpec(raw json.RawMessage) error {
	var spec sweep.Spec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("parsing sweep spec: %w", err)
	}
	return spec.Validate()
}

// newSweepExec builds the job executor: it runs one journaled job
// through the same renderer the CLI uses, consulting the shared result
// cache when one is open (cached cells re-render without simulating;
// output bytes are identical either way). Each finished experiment
// heartbeats the lease, so a long sweep making real progress outlives
// the lease timeout while a stalled one is still redelivered. Case
// completions — cached and computed counted separately — stream to the
// daemon's per-job progress hub, and — when a manifest collector is
// attached — an instrumented representative run contributes
// profile/timeline/series artifacts, read from the result cache when
// another job already rendered them and counted by source on
// observeRuns. None of these channels touch the result bytes: output
// neutrality is test-enforced against the direct sweep.Execute path.
func newSweepExec(cache *resultcache.Store, codeVersion string, observeRuns *metrics.CounterVec) queue.Executor {
	return func(ctx context.Context, raw json.RawMessage) ([]byte, error) {
		return runSweepJob(ctx, raw, cache, codeVersion, observeRuns)
	}
}

func runSweepJob(ctx context.Context, raw json.RawMessage, cache *resultcache.Store, codeVersion string, observeRuns *metrics.CounterVec) ([]byte, error) {
	var spec sweep.Spec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, err
	}
	tracker := report.NewTracker()
	tracker.SetOnUpdate(func(s report.Snapshot) { queue.PublishProgress(ctx, s) })
	pool := runner.New(spec.Parallel)
	pool.SetReporter(tracker)
	var out bytes.Buffer
	results, err := sweep.Execute(ctx, spec, &out, sweep.Options{
		Pool:         pool,
		Cache:        cache,
		CodeVersion:  codeVersion,
		OnExperiment: func(string, time.Duration, error) { queue.Heartbeat(ctx) },
	})
	if err != nil {
		return nil, err
	}
	var failed []string
	for _, r := range results {
		if r.Error != "" {
			failed = append(failed, fmt.Sprintf("%s: %s", r.Name, r.Error))
		}
	}
	if len(failed) > 0 {
		return nil, fmt.Errorf("%d experiments failed: %v", len(failed), failed)
	}
	if queue.WantsArtifacts(ctx) {
		arts, cached, oerr := sweep.ObserveArtifactsCached(spec, cache, codeVersion)
		if oerr != nil {
			// The result already rendered; a failed observer run costs the
			// manifest extras, not the job.
			slog.Warn("observe artifacts failed", "error", oerr)
		} else if observeRuns != nil {
			source := "computed"
			if cached {
				source = "cache"
			}
			observeRuns.With(source).Inc()
		}
		for _, a := range arts {
			queue.AddArtifact(ctx, queue.RawArtifact{
				Name: a.Name, Kind: a.Kind, ContentType: a.ContentType, Data: a.Data,
			})
		}
		queue.Heartbeat(ctx)
	}
	return out.Bytes(), nil
}

// runCampaign runs one fault campaign (asapd -campaign N or
// -iocampaign N), prints its summary as JSON and exits by its verdict.
// Under -control the verdict inverts: the run passes only if the audit
// detected the damage the control causes.
func runCampaign(stdout io.Writer, run func(campaign.Config) (*campaign.Summary, error), cfg campaign.Config) int {
	sum, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "asapd: campaign: %v\n", err)
		return 1
	}
	buf, _ := json.MarshalIndent(sum, "", "  ")
	fmt.Fprintln(stdout, string(buf))
	if err := sum.Verdict(); err != nil {
		fmt.Fprintf(os.Stderr, "asapd: %s campaign FAILED: %v\n", sum.Campaign, err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "asapd: %s campaign passed: %s\n", sum.Campaign, sum)
	return 0
}
