package report

import (
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// IsTerminal reports whether w is a character device. It gates the
// default progress line, so piped and CI output stays clean.
func IsTerminal(w io.Writer) bool {
	f, ok := w.(*os.File)
	if !ok {
		return false
	}
	fi, err := f.Stat()
	return err == nil && fi.Mode()&os.ModeCharDevice != 0
}

// rateWindow is the sliding window over which the instantaneous
// completion rate is measured. Short enough to track phase changes
// inside a sweep (fig7 cases are ~100x slower than fig1 cases), long
// enough to smooth worker-count jitter.
const rateWindow = 5 * time.Second

// maxWindowSamples bounds the completion-timestamp ring so a
// multi-thousand-case campaign cannot grow the window slice without
// bound between prunes.
const maxWindowSamples = 512

// Snapshot is a point-in-time view of a Progress. It is the shared
// currency between the interactive -progress lines (asapbench and both
// asapcrash sweeps) and the daemon's per-job progress streaming:
// both sides read the same counters, rate, and ETA from the same
// sliding-window implementation.
type Snapshot struct {
	Done    int           `json:"done"`
	Total   int           `json:"total"`
	Failed  int           `json:"failed"`
	Cached  int           `json:"cached"`            // of Done, how many came from the result cache
	Current string        `json:"current,omitempty"` // most recently finished label
	Rate    float64       `json:"rate"`              // cases/s over the sliding window
	ETA     time.Duration `json:"-"`
	ETASec  float64       `json:"eta_sec"`
	Elapsed time.Duration `json:"-"`
}

// Progress is a single-line textual progress reporter for pooled
// experiment sweeps: jobs done/total, elapsed, sliding-window rate,
// ETA, and the slowest job seen so far. It implements the runner
// package's Reporter contract structurally (Start/Done), so report
// does not import runner. Batches accumulate: each Start call raises
// the total, letting one Progress span every figure of an asapbench
// run. With a nil writer (NewTracker) it draws nothing and serves
// purely as a thread-safe counter + rate tracker for Snapshot readers.
type Progress struct {
	mu        sync.Mutex
	w         io.Writer
	now       func() time.Time
	start     time.Time
	total     int
	done      int
	failed    int
	cached    int
	current   string
	slowLabel string
	slowWall  time.Duration
	window    []time.Time // completion times within rateWindow, ascending
	onUpdate  func(Snapshot)
}

// NewProgress returns a Progress writing to w (typically stderr).
func NewProgress(w io.Writer) *Progress {
	return &Progress{w: w, now: time.Now}
}

// NewTracker returns a Progress that never draws: counters, rate and
// ETA only, read via Snapshot or pushed via SetOnUpdate.
func NewTracker() *Progress {
	return &Progress{now: time.Now}
}

// SetOnUpdate installs a callback invoked (outside p's lock) after
// every Start and Done with a fresh snapshot. Used by the daemon to
// forward executor progress into its per-job event hub. Call before
// handing p to a pool; replacing mid-flight is racy.
func (p *Progress) SetOnUpdate(fn func(Snapshot)) {
	p.mu.Lock()
	p.onUpdate = fn
	p.mu.Unlock()
}

// Start announces a batch of jobs; totals accumulate across batches.
func (p *Progress) Start(total int) {
	p.mu.Lock()
	if p.start.IsZero() {
		p.start = p.now()
	}
	p.total += total
	snap, fn := p.snapshotLocked(), p.onUpdate
	p.mu.Unlock()
	if fn != nil {
		fn(snap)
	}
}

// Done reports one finished job and redraws the progress line.
func (p *Progress) Done(label string, wall time.Duration, ok bool) {
	p.finish(label, wall, ok, false)
}

// CachedDone reports one job satisfied from the result cache (the
// runner package's CacheReporter extension): it counts toward done and
// the rate like any completion, and separately toward the cached tally
// so warm sweeps read "done (cached/ran)".
func (p *Progress) CachedDone(label string) {
	p.finish(label, 0, true, true)
}

func (p *Progress) finish(label string, wall time.Duration, ok, cached bool) {
	p.mu.Lock()
	p.done++
	if !ok {
		p.failed++
	}
	if cached {
		p.cached++
	}
	p.current = label
	if wall > p.slowWall {
		p.slowWall, p.slowLabel = wall, label
	}
	t := p.now()
	p.window = append(p.window, t)
	p.pruneLocked(t)
	if p.w != nil {
		p.draw()
	}
	snap, fn := p.snapshotLocked(), p.onUpdate
	p.mu.Unlock()
	if fn != nil {
		fn(snap)
	}
}

// pruneLocked drops window samples older than rateWindow and clamps
// the ring size; callers hold p.mu.
func (p *Progress) pruneLocked(now time.Time) {
	cut := now.Add(-rateWindow)
	i := 0
	for i < len(p.window) && p.window[i].Before(cut) {
		i++
	}
	if i > 0 {
		p.window = append(p.window[:0], p.window[i:]...)
	}
	if n := len(p.window); n > maxWindowSamples {
		copy(p.window, p.window[n-maxWindowSamples:])
		p.window = p.window[:maxWindowSamples]
	}
}

// rateLocked returns cases/s. Inside the sliding window it is
// sample-count over window span; with too few recent samples it falls
// back to the lifetime average so ETAs stay sane on slow cases.
func (p *Progress) rateLocked(now time.Time) float64 {
	if n := len(p.window); n >= 2 {
		span := now.Sub(p.window[0])
		if span > 0 {
			return float64(n) / span.Seconds()
		}
	}
	if elapsed := now.Sub(p.start); elapsed > 0 && p.done > 0 {
		return float64(p.done) / elapsed.Seconds()
	}
	return 0
}

// snapshotLocked builds a Snapshot; callers hold p.mu.
func (p *Progress) snapshotLocked() Snapshot {
	now := p.now()
	s := Snapshot{
		Done:    p.done,
		Total:   p.total,
		Failed:  p.failed,
		Cached:  p.cached,
		Current: p.current,
		Rate:    p.rateLocked(now),
	}
	if !p.start.IsZero() {
		s.Elapsed = now.Sub(p.start)
	}
	if s.Rate > 0 && p.total > p.done {
		s.ETA = time.Duration(float64(p.total-p.done) / s.Rate * float64(time.Second))
		s.ETASec = s.ETA.Seconds()
	}
	return s
}

// Snapshot returns a point-in-time view of the progress counters.
func (p *Progress) Snapshot() Snapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.snapshotLocked()
}

// draw repaints the line; callers hold p.mu and have checked p.w.
func (p *Progress) draw() {
	now := p.now()
	elapsed := now.Sub(p.start)
	rate := p.rateLocked(now)
	var eta time.Duration
	if rate > 0 && p.total > p.done {
		eta = time.Duration(float64(p.total-p.done) / rate * float64(time.Second))
	}
	pct := 0.0
	if p.total > 0 {
		pct = 100 * float64(p.done) / float64(p.total)
	}
	counts := fmt.Sprintf("%d/%d", p.done, p.total)
	if p.cached > 0 {
		counts = fmt.Sprintf("%d/%d (%d cached/%d ran)", p.done, p.total, p.cached, p.done-p.cached)
	}
	line := fmt.Sprintf("[%s] %3.0f%% elapsed %s eta %s",
		counts, pct,
		elapsed.Round(100*time.Millisecond), eta.Round(100*time.Millisecond))
	if rate > 0 {
		line += fmt.Sprintf(" %.1f/s", rate)
	}
	if p.failed > 0 {
		line += fmt.Sprintf(" failed %d", p.failed)
	}
	if p.slowLabel != "" {
		line += fmt.Sprintf(" slowest %s (%s)", p.slowLabel, p.slowWall.Round(time.Millisecond))
	}
	fmt.Fprintf(p.w, "\r\x1b[K%s", line)
}

// Finish terminates the progress line with a summary and a newline.
func (p *Progress) Finish() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.total == 0 || p.w == nil {
		return
	}
	p.draw()
	fmt.Fprintln(p.w)
}
