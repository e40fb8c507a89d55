// Package runner fans independent experiment jobs across a fixed-size
// worker pool and assembles their results in deterministic submission
// order. Every figure in the paper's evaluation is a (variant ×
// benchmark) matrix of runs that build private machines and share no
// state, so the sweep is embarrassingly parallel — but tables and
// EXPERIMENTS.md diffs must stay byte-stable regardless of scheduling,
// which is why results are returned by submission index, never by
// completion order.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"asap/internal/stats"
)

// Job is one schedulable unit of work: a labelled closure. Jobs must be
// independent of each other; the pool guarantees nothing about execution
// order, only about result order.
type Job[R any] struct {
	Label string
	Run   func() R
	// Cached, when non-nil, is consulted on a worker before Run is
	// dispatched: returning (r, true) short-circuits the job and r lands
	// at the job's index as if computed. This is how the result cache
	// turns a warm sweep into O(diff) — hits never build a machine.
	Cached func() (R, bool)
	// Store, when non-nil, receives the computed result after a cache
	// miss ran to completion (never after a panic, and never for cache
	// hits), so the next sweep finds it.
	Store func(R)
}

// Measurable lets the pool lift simulator metrics out of a job result
// without knowing its concrete type. workload.Result implements it.
type Measurable interface {
	SimCycles() uint64
	SimOps() int64
}

// Reporter receives progress callbacks from the pool. Calls are
// serialized (never concurrent), but Done arrives in completion order,
// not submission order.
type Reporter interface {
	// Start announces one batch of jobs about to run; a pool used for
	// several batches calls Start once per batch, so totals accumulate.
	Start(total int)
	// Done reports one finished job: its label, host wall time, and
	// whether it completed without panicking.
	Done(label string, wall time.Duration, ok bool)
}

// CacheReporter is the optional Reporter extension for pools running
// memoized jobs: a reporter that implements it has cache hits reported
// through CachedDone instead of Done, so progress lines and daemon
// snapshots can show the cached-vs-computed split. Reporters without it
// see hits as ordinary (instant, successful) Done calls.
type CacheReporter interface {
	Reporter
	// CachedDone reports one job satisfied from the result cache.
	CachedDone(label string)
}

// PanicError carries a panic out of a worker goroutine to the caller of
// Collect, preserving the job label and the recovered value.
type PanicError struct {
	Label string
	Value any
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("runner: job %q panicked: %v", e.Label, e.Value)
}

// Unwrap exposes a panic value that is itself an error (a job panicking
// with a *sim.StallError, say), so errors.Is/As see through the wrapper.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// Pool is a fixed set of workers for Collect batches. The zero value is
// not usable; create one with New. A Pool may run any number of batches,
// one at a time or from a single goroutine.
type Pool struct {
	workers  int
	reporter Reporter
	metrics  *stats.JobLog
}

// New returns a pool of the given width. Zero or negative means
// GOMAXPROCS; one gives serial execution in submission order.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers}
}

// Workers returns the pool width.
func (p *Pool) Workers() int { return p.workers }

// SetReporter installs a progress reporter (nil disables reporting).
func (p *Pool) SetReporter(r Reporter) { p.reporter = r }

// SetMetrics installs a job log that receives one stats.JobMetrics per
// job, appended in submission order after each batch completes.
func (p *Pool) SetMetrics(l *stats.JobLog) { p.metrics = l }

// ErrSkipped marks jobs that were never dispatched because the batch was
// cut short — the context was cancelled, or an earlier job failed under
// CollectCtx. It is the per-index error, not the batch error; the batch
// error is the cancellation cause or the earliest real failure.
var ErrSkipped = fmt.Errorf("runner: job skipped (batch cut short)")

// Collect runs every job on p's workers and returns their results
// indexed by submission order. A panicking job is captured as a
// *PanicError; the remaining jobs still run, and the error returned is
// the panic of the earliest-submitted failing job, so error reporting is
// as deterministic as the results. Results at failed indices are the
// zero value of R.
func Collect[R any](p *Pool, jobs []Job[R]) ([]R, error) {
	return collect(context.Background(), p, jobs, false)
}

// CollectCtx is Collect with a kill switch: once ctx is cancelled or any
// job fails, no further jobs are dispatched. Jobs already running finish
// (simulation runs are not preemptible; closures that honor ctx stop
// sooner), their results land at their indices, and skipped indices hold
// the zero value of R. The returned error is the earliest-submitted
// failing job's error if any job failed, else ctx.Err() if the batch was
// cut short by cancellation, else nil. Drain paths and signal handlers
// use this so one failure or an interrupt stops a sweep instead of
// running the rest of the matrix.
func CollectCtx[R any](ctx context.Context, p *Pool, jobs []Job[R]) ([]R, error) {
	return collect(ctx, p, jobs, true)
}

func collect[R any](ctx context.Context, p *Pool, jobs []Job[R], cut bool) ([]R, error) {
	n := len(jobs)
	results := make([]R, n)
	walls := make([]time.Duration, n)
	errs := make([]error, n)
	ran := make([]bool, n)

	if p.reporter != nil {
		p.reporter.Start(n)
	}

	workers := p.workers
	if workers > n {
		workers = n
	}
	var failed atomic.Bool
	var repMu sync.Mutex
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if cut && (failed.Load() || ctx.Err() != nil) {
					errs[i] = ErrSkipped
					continue
				}
				if jobs[i].Cached != nil && cachedOne(&results[i], jobs[i]) {
					ran[i] = true
					if p.reporter != nil {
						repMu.Lock()
						if cr, ok := p.reporter.(CacheReporter); ok {
							cr.CachedDone(jobs[i].Label)
						} else {
							p.reporter.Done(jobs[i].Label, 0, true)
						}
						repMu.Unlock()
					}
					continue
				}
				start := time.Now()
				errs[i] = runOne(&results[i], jobs[i])
				walls[i] = time.Since(start)
				ran[i] = true
				if errs[i] != nil {
					failed.Store(true)
				} else if jobs[i].Store != nil {
					jobs[i].Store(results[i])
				}
				if p.reporter != nil {
					repMu.Lock()
					p.reporter.Done(jobs[i].Label, walls[i], errs[i] == nil)
					repMu.Unlock()
				}
			}
		}()
	}
	for i := range jobs {
		idx <- i
	}
	close(idx)
	wg.Wait()

	if p.metrics != nil {
		for i := range jobs {
			if ran[i] {
				p.metrics.Record(jobMetrics(jobs[i].Label, walls[i], results[i]))
			}
		}
	}
	for _, err := range errs {
		if err != nil && err != ErrSkipped {
			return results, err
		}
	}
	if cut {
		if err := ctx.Err(); err != nil {
			return results, err
		}
	}
	return results, nil
}

// cachedOne consults a job's cache probe with panic capture: a probe
// that panics (a corrupt decode slipping past CRC, say) is a miss — the
// job simply runs — never a batch failure.
func cachedOne[R any](dst *R, j Job[R]) (hit bool) {
	defer func() {
		if recover() != nil {
			hit = false
		}
	}()
	r, ok := j.Cached()
	if ok {
		*dst = r
	}
	return ok
}

// runOne executes one job with panic capture.
func runOne[R any](dst *R, j Job[R]) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Label: j.Label, Value: r}
		}
	}()
	*dst = j.Run()
	return nil
}

// jobMetrics summarizes one finished job, lifting simulated cycles and
// operation counts when the result type exposes them.
func jobMetrics[R any](label string, wall time.Duration, res R) stats.JobMetrics {
	m := stats.JobMetrics{Label: label, WallNS: wall.Nanoseconds()}
	if meas, ok := any(res).(Measurable); ok {
		m.Cycles = meas.SimCycles()
		m.Ops = meas.SimOps()
		if s := wall.Seconds(); s > 0 {
			m.OpsPerSec = float64(m.Ops) / s
		}
	}
	return m
}
