package queue

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"sync"
	"time"

	"asap/internal/iofault"
	"asap/internal/metrics"
	"asap/internal/obs"
	"asap/internal/report"
)

// Executor runs one job: spec in, artifact bytes out. It must honor ctx
// (the daemon cancels it when the job's lease is revoked or a forced
// drain begins) and must be deterministic for a given spec — artifact
// addresses are content-derived, so redelivered work converges on the
// same object. Panics are captured and charged as failed deliveries.
type Executor func(ctx context.Context, spec json.RawMessage) ([]byte, error)

// ErrDraining rejects intake once a drain has begun.
var ErrDraining = errors.New("queue: daemon is draining")

// ErrDegraded rejects intake while a hard disk-budget watermark is
// breached. Unlike draining, degraded mode is reversible: reclaim disk
// (or raise the budget) and intake resumes.
var ErrDegraded = errors.New("queue: degraded: disk budget exceeded, intake refused")

// StoreBudget bounds one store's on-disk footprint. Breaching Soft puts
// the daemon in degraded level 1 (the resultcache is shed — it holds
// only recomputable entries); breaching Hard raises level 2 (new job
// intake is refused with 503 while status, metrics and results keep
// serving). Zero disables the respective watermark.
type StoreBudget struct {
	Soft int64
	Hard int64
}

// level maps a usage reading to a degraded level under this budget.
// cur is the store's current level: leaving a level requires dropping
// 1/8 below the watermark that raised it (hysteresis, so a store
// hovering at the boundary does not flap).
func (b StoreBudget) level(usage int64, cur int) int {
	soft, hard := b.Soft, b.Hard
	if cur >= 2 && hard > 0 {
		hard -= hard / 8
	}
	if cur >= 1 && soft > 0 {
		soft -= soft / 8
	}
	switch {
	case hard > 0 && usage >= hard:
		return 2
	case soft > 0 && usage >= soft:
		return 1
	}
	return 0
}

// BudgetConfig sets per-store disk budgets. The zero value disables
// degraded mode entirely.
type BudgetConfig struct {
	// Journal bounds the queue WAL (journal file bytes).
	Journal StoreBudget
	// Store bounds the content-addressed artifact store.
	Store StoreBudget
	// Cache bounds the resultcache, observed through Config.CacheUsage.
	Cache StoreBudget
}

func (b BudgetConfig) enabled() bool {
	return b.Journal != (StoreBudget{}) || b.Store != (StoreBudget{}) || b.Cache != (StoreBudget{})
}

// DiscardLogger returns a logger that drops everything — tests and the
// fault campaign run thousands of daemon lifecycles and must not spam.
// (slog.DiscardHandler needs go 1.24; this module floors at 1.22.)
func DiscardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// Config assembles a daemon.
type Config struct {
	// Dir is the data directory: the journal file journal.asapq plus
	// the artifact store under objects/.
	Dir string
	// Workers sizes the execution pool (default 2).
	Workers int
	// Policy shapes leases, backoff and dead-lettering.
	Policy Policy
	// Exec runs jobs; required.
	Exec Executor
	// Validate, when set, gates Submit: a spec it rejects never enters
	// the journal.
	Validate func(spec json.RawMessage) error
	// ExpireEvery is the lease-expiry scan period (default
	// LeaseTimeout/4, clamped to [10ms, 5s]).
	ExpireEvery time.Duration
	// SeriesEvery is the queue-depth sampling period for the obs
	// recorder (default 250ms; 0 keeps the default, <0 disables).
	SeriesEvery time.Duration
	// Logger receives the structured operational event log: job
	// lifecycle, recovery, drain and dead-letter events (default
	// slog.Default()). Tests and the campaign pass a discard logger.
	Logger *slog.Logger
	// Metrics is the registry service instruments are registered on
	// (default: a fresh registry, exposed as Daemon.Metrics). One
	// registry belongs to one daemon: scrape-time gauges capture it.
	Metrics *metrics.Registry
	// ResultContentType is the Content-Type of the primary result
	// artifact recorded in job manifests (default
	// application/octet-stream; cmd/asapd sets text/plain).
	ResultContentType string
	// Clock overrides time.Now for deterministic tests.
	Clock func() time.Time
	// Volatile disables the journal: the fault campaign's negative
	// control. A volatile daemon that dies loses its queue.
	Volatile bool
	// FS is the filesystem seam under the journal and artifact store
	// (default iofault.OS{}); the kill campaign passes a FaultFS.
	FS iofault.FS
	// JournalCompactBytes is the journal compaction threshold (default
	// DefaultCompactBytes; negative disables compaction).
	JournalCompactBytes int64
	// Budget configures disk-budget degraded mode (zero disables).
	Budget BudgetConfig
	// CacheUsage and CacheShed connect the resultcache — owned by the
	// executor layer, not the daemon — to degraded mode: usage feeds the
	// Cache budget and the asapd_store_bytes gauge; shed is invoked on
	// every upward degraded transition.
	CacheUsage func() int64
	CacheShed  func() (int64, error)
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	c.Policy = c.Policy.withDefaults()
	if c.ExpireEvery <= 0 {
		c.ExpireEvery = c.Policy.LeaseTimeout / 4
		if c.ExpireEvery < 10*time.Millisecond {
			c.ExpireEvery = 10 * time.Millisecond
		}
		if c.ExpireEvery > 5*time.Second {
			c.ExpireEvery = 5 * time.Second
		}
	}
	if c.SeriesEvery == 0 {
		c.SeriesEvery = 250 * time.Millisecond
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	if c.Metrics == nil {
		c.Metrics = metrics.NewRegistry()
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	if c.FS == nil {
		c.FS = iofault.OS{}
	}
	return c
}

// Daemon owns the queue, the artifact store, the worker pool and the
// lease-expiry watchdog. HTTP serving lives in server.go; cmd/asapd is a
// thin flag-parsing shell around this type.
type Daemon struct {
	cfg Config
	Q   *Queue
	St  *Store
	// Rec samples queue-depth gauges on wall time (milliseconds since
	// Start), reusing the observability layer's bounded recorder. The
	// ticker writes it while /api/v1/series reads it, so both hold recMu.
	Rec   *obs.Recorder
	recMu sync.Mutex
	// Recovered and Journal report what Open replayed.
	Recovered  RecoverResult
	JournalRep ReplayReport
	// Metrics is the service instrument registry (see Config.Metrics).
	Metrics *metrics.Registry

	met *svcMetrics
	hub *progressHub

	// ctypes caches artifact hash -> Content-Type from job manifests;
	// ctRebuilt marks the one-time post-restart rebuild as done.
	ctMu      sync.Mutex
	ctypes    map[string]string
	ctRebuilt bool

	start time.Time

	// leaseCtx gates new leases; jobCtx is the parent of every running
	// job's context. Drain cancels the first, then (on timeout) the
	// second; Kill cancels both at once.
	leaseCtx    context.Context
	leaseCancel context.CancelFunc
	jobCtx      context.Context
	jobCancel   context.CancelFunc

	mu       sync.Mutex
	running  map[uint64]context.CancelFunc // live job ID -> cancel
	draining bool
	started  bool

	// degLevel is the disk-budget degraded level (0 healthy, 1 soft
	// breach: cache shed, 2 hard breach: intake refused), under degMu so
	// budget checks never contend with the job-tracking lock.
	degMu    sync.Mutex
	degLevel int

	wg       sync.WaitGroup
	tickStop chan struct{}
}

// Open builds a daemon: journal replayed, orphaned leases expired,
// store opened. Call Start to begin executing.
func Open(cfg Config) (*Daemon, error) {
	cfg = cfg.withDefaults()
	if cfg.Exec == nil {
		return nil, errors.New("queue: Config.Exec is required")
	}
	var (
		j    *Journal
		recs []Record
		rep  ReplayReport
		err  error
	)
	if !cfg.Volatile {
		j, recs, rep, err = OpenJournal(cfg.FS, cfg.Dir,
			JournalOptions{CompactBytes: cfg.JournalCompactBytes})
		if err != nil {
			return nil, err
		}
	}
	q, recov, err := Restore(cfg.Policy, Options{Journal: j, Clock: cfg.Clock}, recs)
	if err != nil {
		if j != nil {
			j.Close()
		}
		return nil, err
	}
	st, err := OpenStoreFS(cfg.FS, cfg.Dir)
	if err != nil {
		q.Close()
		return nil, err
	}
	leaseCtx, leaseCancel := context.WithCancel(context.Background())
	jobCtx, jobCancel := context.WithCancel(context.Background())
	d := &Daemon{
		cfg:         cfg,
		Q:           q,
		St:          st,
		start:       cfg.Clock(),
		Recovered:   recov,
		JournalRep:  rep,
		leaseCtx:    leaseCtx,
		leaseCancel: leaseCancel,
		jobCtx:      jobCtx,
		jobCancel:   jobCancel,
		running:     make(map[uint64]context.CancelFunc),
		tickStop:    make(chan struct{}),
		Metrics:     cfg.Metrics,
		hub:         newProgressHub(),
		ctypes:      make(map[string]string),
	}
	d.met = newSvcMetrics(d.Metrics)
	d.met.wire(d)
	if recov.Orphaned > 0 || rep.TornBytes > 0 {
		cfg.Logger.Info("recovery",
			"jobs", recov.Jobs, "pending", recov.Pending,
			"orphaned", recov.Orphaned, "records", rep.Records,
			"torn_bytes", rep.TornBytes)
	}
	if cfg.SeriesEvery > 0 {
		d.Rec = obs.NewRecorder(uint64(cfg.SeriesEvery.Milliseconds()), 4096)
		d.Rec.AddGauge("depth.pending", func() float64 { return float64(d.Q.Depths().Pending) })
		d.Rec.AddGauge("depth.eligible", func() float64 { return float64(d.Q.Depths().Eligible) })
		d.Rec.AddGauge("depth.leased", func() float64 { return float64(d.Q.Depths().Leased) })
		d.Rec.AddGauge("depth.done", func() float64 { return float64(d.Q.Depths().Done) })
		d.Rec.AddGauge("depth.dead", func() float64 { return float64(d.Q.Depths().Dead) })
	}
	return d, nil
}

// Start launches the worker pool and the expiry/series tickers.
func (d *Daemon) Start() {
	d.mu.Lock()
	if d.started {
		d.mu.Unlock()
		return
	}
	d.started = true
	d.mu.Unlock()
	d.start = d.cfg.Clock()
	for i := 0; i < d.cfg.Workers; i++ {
		d.wg.Add(1)
		go d.runWorker(fmt.Sprintf("w%d", i))
	}
	d.wg.Add(1)
	go d.runTickers()
}

// runTickers drives lease expiry and (when enabled) depth sampling.
func (d *Daemon) runTickers() {
	defer d.wg.Done()
	expire := time.NewTicker(d.cfg.ExpireEvery)
	defer expire.Stop()
	var series <-chan time.Time
	if d.Rec != nil {
		t := time.NewTicker(d.cfg.SeriesEvery)
		defer t.Stop()
		series = t.C
	}
	for {
		select {
		case <-d.tickStop:
			return
		case <-expire.C:
			d.checkBudgets()
			expired, err := d.Q.ExpireLeases()
			if err != nil {
				return
			}
			for _, ex := range expired {
				d.cfg.Logger.Warn("lease expired",
					"job", ex.ID, "delivery", ex.Delivery,
					"worker", ex.Worker, "dead", ex.Dead)
				d.cancelJob(ex.ID)
			}
		case <-series:
			d.recMu.Lock()
			d.Rec.Tick(uint64(d.cfg.Clock().Sub(d.start).Milliseconds()))
			d.recMu.Unlock()
		}
	}
}

// DegradedLevel returns the current disk-budget degraded level: 0
// healthy, 1 soft (cache shed), 2 hard (intake refused).
func (d *Daemon) DegradedLevel() int {
	d.degMu.Lock()
	defer d.degMu.Unlock()
	return d.degLevel
}

// checkBudgets reads every store's footprint, computes the degraded
// level (with 1/8 hysteresis on the way down, per StoreBudget.level),
// and drives transitions: any upward move sheds the resultcache — its
// entries are recomputable, so it is always the first thing traded for
// disk — and every move is logged and mirrored to the asapd_degraded
// gauge. Called from the expiry ticker and after every result persist.
func (d *Daemon) checkBudgets() {
	b := d.cfg.Budget
	if !b.enabled() {
		return
	}
	var jBytes int64
	if j := d.Q.Journal(); j != nil {
		jBytes = j.Size()
	}
	sBytes := d.St.Bytes()
	var cBytes int64
	if d.cfg.CacheUsage != nil {
		cBytes = d.cfg.CacheUsage()
	}

	d.degMu.Lock()
	cur := d.degLevel
	level := 0
	for _, s := range []struct {
		usage  int64
		budget StoreBudget
	}{{jBytes, b.Journal}, {sBytes, b.Store}, {cBytes, b.Cache}} {
		if l := s.budget.level(s.usage, cur); l > level {
			level = l
		}
	}
	if level == cur {
		d.degMu.Unlock()
		return
	}
	d.degLevel = level
	d.degMu.Unlock()

	d.met.degraded.Set(float64(level))
	var shedBytes int64
	if level > cur && d.cfg.CacheShed != nil {
		freed, err := d.cfg.CacheShed()
		shedBytes = freed
		if err != nil {
			d.cfg.Logger.Error("degraded: cache shed incomplete", "freed_bytes", freed, "error", err)
		}
	}
	attrs := []any{
		"from", cur, "to", level,
		"journal_bytes", jBytes, "store_bytes", sBytes, "cache_bytes", cBytes,
	}
	switch {
	case level >= 2:
		d.cfg.Logger.Error("degraded: hard disk budget breached, refusing new job intake",
			append(attrs, "shed_bytes", shedBytes)...)
	case level > cur:
		d.cfg.Logger.Warn("degraded: soft disk budget breached, resultcache shed",
			append(attrs, "shed_bytes", shedBytes)...)
	case level == 0:
		d.cfg.Logger.Info("degraded mode cleared", attrs...)
	default:
		d.cfg.Logger.Info("degraded: hard budget cleared, still above soft watermark", attrs...)
	}
}

// trackJob registers a running job's cancel, so lease revocation can
// stop the executor.
func (d *Daemon) trackJob(id uint64, cancel context.CancelFunc) {
	d.mu.Lock()
	d.running[id] = cancel
	d.mu.Unlock()
}

func (d *Daemon) untrackJob(id uint64) {
	d.mu.Lock()
	delete(d.running, id)
	d.mu.Unlock()
}

// cancelJob cancels the context of a running job, if any.
func (d *Daemon) cancelJob(id uint64) {
	d.mu.Lock()
	cancel := d.running[id]
	d.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// runWorker is one worker's lease-execute loop.
func (d *Daemon) runWorker(name string) {
	defer d.wg.Done()
	for {
		l := d.nextLease(name)
		if l == nil {
			return
		}
		d.execute(l)
	}
}

// nextLease blocks until a job is leasable, the daemon stops leasing
// (drain/kill), or the queue closes.
func (d *Daemon) nextLease(name string) *Lease {
	for {
		if d.leaseCtx.Err() != nil {
			return nil
		}
		l, gate, err := d.Q.TryLease(name)
		if err != nil {
			return nil
		}
		if l != nil {
			return l
		}
		delay := 50 * time.Millisecond
		if gate > 0 && gate < delay {
			delay = gate
		}
		timer := time.NewTimer(delay)
		select {
		case <-d.leaseCtx.Done():
			timer.Stop()
			return nil
		case <-d.Q.Notify():
			timer.Stop()
		case <-timer.C:
		}
	}
}

// heartbeatKey carries the lease-extension callback into executor
// contexts.
type heartbeatKey struct{}

// WithHeartbeat attaches a progress-heartbeat callback to ctx.
func WithHeartbeat(ctx context.Context, fn func()) context.Context {
	return context.WithValue(ctx, heartbeatKey{}, fn)
}

// Heartbeat invokes the context's progress heartbeat, if any. Executors
// call it after each unit of real work; the daemon maps it to a lease
// extension, so genuinely progressing jobs outlive the lease timeout
// while stalled ones do not (the extension only happens when work
// actually completes).
func Heartbeat(ctx context.Context) {
	if fn, ok := ctx.Value(heartbeatKey{}).(func()); ok {
		fn()
	}
}

// execute runs one leased job end to end: executor (panic-captured,
// context-cancellable), artifact + manifest persist, then ack — in that
// order, so a crash between persist and ack redelivers into idempotent
// Puts. The executor's context carries three opt-in channels back into
// the daemon: the lease heartbeat, the artifact sink (extra outputs
// for the manifest) and the progress publisher (per-job live counters).
func (d *Daemon) execute(l *Lease) {
	ctx, cancel := context.WithCancel(d.jobCtx)
	ctx = WithHeartbeat(ctx, func() {
		d.met.heartbeats.Inc()
		d.Q.Extend(l)
	})
	col := &artifactCollector{}
	ctx = WithArtifactSink(ctx, col.add)
	ctx = WithProgressPublisher(ctx, func(s report.Snapshot) {
		d.hub.publish(ProgressEvent{
			JobID: l.ID, State: "running",
			Done: s.Done, Total: s.Total, Failed: s.Failed,
			Current: s.Current, Rate: s.Rate, ETASec: s.ETASec,
		})
	})
	d.trackJob(l.ID, cancel)
	d.met.execBusy.Add(1)
	t0 := time.Now()
	art, err := runExecutor(ctx, d.cfg.Exec, l.Spec)
	wall := time.Since(t0)
	d.met.execBusy.Add(-1)
	d.met.execJobSeconds.Observe(wall.Seconds())
	d.untrackJob(l.ID)
	cancel()

	if err == nil {
		// Persisting is progress: buy a fresh lease window before the
		// fsync-heavy store writes, so a short lease timeout cannot expire
		// a job that finished computing and is merely waiting on disk.
		d.Q.Extend(l)
		hash, manifest, perr := d.persistAndCheck(art, col.list())
		if perr == nil {
			switch aerr := d.Q.Ack(l, hash, manifest); {
			case aerr == nil:
				d.cfg.Logger.Info("job done",
					"job", l.ID, "delivery", l.Delivery,
					"hash", hash, "manifest", manifest, "wall", wall)
				d.publishJobState(l.ID, "done", true, hash, manifest, "")
			case errors.Is(aerr, ErrLeaseLost):
				d.cfg.Logger.Warn("late ack discarded: lease lost",
					"job", l.ID, "delivery", l.Delivery)
			default:
				d.cfg.Logger.Error("ack failed", "job", l.ID, "error", aerr)
			}
			return
		}
		err = perr
	}

	// Cancellation during drain is a checkpoint, not a failure: the job
	// returns to pending uncharged and the restarted (or drained) daemon
	// picks it up fresh.
	if ctx.Err() != nil && d.isDraining() {
		switch rerr := d.Q.Release(l); {
		case rerr == nil:
			d.cfg.Logger.Info("job checkpointed for drain",
				"job", l.ID, "delivery", l.Delivery)
			d.publishJobState(l.ID, "released", false, "", "", "")
		case errors.Is(rerr, ErrLeaseLost):
		default:
			d.cfg.Logger.Error("release failed", "job", l.ID, "error", rerr)
		}
		return
	}

	dead, ferr := d.Q.Fail(l, err.Error())
	switch {
	case ferr == nil && dead:
		d.cfg.Logger.Warn("job dead-lettered",
			"job", l.ID, "deliveries", l.Delivery, "error", err)
		d.publishJobState(l.ID, "dead", true, "", "", err.Error())
	case ferr == nil:
		d.cfg.Logger.Warn("job failed, will retry",
			"job", l.ID, "delivery", l.Delivery, "error", err)
		d.publishJobState(l.ID, "failed", false, "", "", err.Error())
	case errors.Is(ferr, ErrLeaseLost):
		d.cfg.Logger.Warn("late failure discarded: lease lost", "job", l.ID)
	default:
		d.cfg.Logger.Error("recording failure failed", "job", l.ID, "error", ferr)
	}
}

// persistResult stores the primary result and, when the executor
// emitted extra artifacts, the full manifest. The manifest hash is
// empty for manifest-less jobs, preserving PR-7 job semantics exactly.
func (d *Daemon) persistResult(art []byte, extras []RawArtifact) (hash, manifest string, err error) {
	hash, err = d.St.Put(art)
	if err != nil {
		return "", "", fmt.Errorf("persisting artifact: %w", err)
	}
	if len(extras) == 0 {
		return hash, "", nil
	}
	manifest, err = d.putManifest(hash, len(art), extras)
	if err != nil {
		return "", "", err
	}
	return hash, manifest, nil
}

// persistAndCheck wraps persistResult with a budget re-check, so a Put
// that tips a watermark degrades the daemon immediately instead of at
// the next ticker.
func (d *Daemon) persistAndCheck(art []byte, extras []RawArtifact) (string, string, error) {
	hash, manifest, err := d.persistResult(art, extras)
	d.checkBudgets()
	return hash, manifest, err
}

// publishJobState emits a lifecycle event on the job's progress stream,
// carrying forward the last known case counters so terminal events are
// self-contained.
func (d *Daemon) publishJobState(id uint64, state string, terminal bool, hash, manifest, errMsg string) {
	ev := ProgressEvent{
		JobID: id, State: state, Terminal: terminal,
		Hash: hash, Manifest: manifest, Error: errMsg,
	}
	if last, ok := d.hub.latest(id); ok {
		ev.Done, ev.Total, ev.Failed, ev.Current = last.Done, last.Total, last.Failed, last.Current
	}
	d.hub.publish(ev)
}

// runExecutor invokes the executor with panic capture, so a worker that
// panics mid-job charges a failed delivery instead of taking down the
// daemon.
func runExecutor(ctx context.Context, exec Executor, spec json.RawMessage) (art []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			art, err = nil, fmt.Errorf("worker panicked: %v", r)
		}
	}()
	return exec(ctx, spec)
}

// Submit validates and enqueues a spec. It fails with ErrDraining once a
// drain has begun: stop-intake is the first phase of shutdown.
func (d *Daemon) Submit(spec json.RawMessage) (uint64, error) {
	if d.isDraining() {
		return 0, ErrDraining
	}
	if d.DegradedLevel() >= 2 {
		return 0, ErrDegraded
	}
	if d.cfg.Validate != nil {
		if err := d.cfg.Validate(spec); err != nil {
			return 0, err
		}
	}
	return d.Q.Enqueue(spec)
}

// Ready reports whether the daemon should receive traffic: replay and
// recovery are complete (Start has been called) and no drain has begun.
// The reason string is served on /readyz 503s.
func (d *Daemon) Ready() (bool, string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	switch {
	case !d.started:
		return false, "starting: recovery/replay not complete"
	case d.draining:
		return false, "draining"
	}
	if d.DegradedLevel() >= 2 {
		return false, "degraded: disk budget exceeded, intake refused"
	}
	return true, "ok"
}

func (d *Daemon) isDraining() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.draining
}

// Drain shuts down gracefully: stop intake, stop granting leases, let
// in-flight jobs finish; when ctx expires first, cancel their contexts
// so they checkpoint (Release, uncharged) instead. The journal is
// flushed and closed before Drain returns.
func (d *Daemon) Drain(ctx context.Context) error {
	d.mu.Lock()
	if d.draining {
		d.mu.Unlock()
		return nil
	}
	d.draining = true
	d.mu.Unlock()

	d.cfg.Logger.Info("draining: intake stopped, waiting for in-flight jobs")
	d.leaseCancel()
	close(d.tickStop)

	done := make(chan struct{})
	go func() {
		d.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		d.cfg.Logger.Warn("drain deadline hit: checkpointing in-flight jobs")
		d.jobCancel()
		<-done
	}
	err := d.Q.Close()
	d.cfg.Logger.Info("drained: journal flushed and closed")
	return err
}

// Kill emulates an abrupt death for tests and the fault campaign: no
// checkpointing, no release of leased jobs — everything simply stops,
// and the journal file is closed the way the kernel closes a dead
// process's files. Under a killed iofault.FaultFS that close flushes
// nothing, so the daemon can no longer change durable state, which is
// exactly a kill -9's view of the world.
func (d *Daemon) Kill() {
	d.mu.Lock()
	already := d.draining
	d.draining = true
	d.mu.Unlock()
	d.leaseCancel()
	d.jobCancel()
	if !already {
		close(d.tickStop)
	}
	d.wg.Wait()
	d.Q.Close()
}

// Stats is the API-facing daemon status snapshot.
type Stats struct {
	Depths    Depths           `json:"depths"`
	Counters  map[string]int64 `json:"counters"`
	Workers   int              `json:"workers"`
	Draining  bool             `json:"draining"`
	Degraded  int              `json:"degraded"`
	Recovered RecoverResult    `json:"recovered"`
	Journal   ReplayReport     `json:"journal"`
	UptimeSec float64          `json:"uptime_sec"`
}

// Stats snapshots the daemon.
func (d *Daemon) Stats() Stats {
	return Stats{
		Depths:    d.Q.Depths(),
		Counters:  d.Q.Counters(),
		Workers:   d.cfg.Workers,
		Draining:  d.isDraining(),
		Degraded:  d.DegradedLevel(),
		Recovered: d.Recovered,
		Journal:   d.JournalRep,
		UptimeSec: d.cfg.Clock().Sub(d.start).Seconds(),
	}
}
