package stats

import (
	"sync"
	"time"
)

// JobMetrics is the machine-readable summary of one pooled experiment
// job: host wall time plus the simulated-cycle and operation counts the
// run produced. Cycles/Ops are zero for jobs whose result type exposes
// no simulator metrics.
type JobMetrics struct {
	Label     string  `json:"label"`
	WallNS    int64   `json:"wall_ns"`
	Cycles    uint64  `json:"cycles,omitempty"`
	Ops       int64   `json:"ops,omitempty"`
	OpsPerSec float64 `json:"ops_per_sec,omitempty"`
}

// Wall returns the job's host wall time.
func (m JobMetrics) Wall() time.Duration { return time.Duration(m.WallNS) }

// JobLog accumulates JobMetrics across pool batches. It is safe for
// concurrent use, though the runner appends in submission order from a
// single goroutine so the log order is deterministic.
type JobLog struct {
	mu   sync.Mutex
	jobs []JobMetrics
}

// Record appends one job's metrics.
func (l *JobLog) Record(m JobMetrics) {
	l.mu.Lock()
	l.jobs = append(l.jobs, m)
	l.mu.Unlock()
}

// Snapshot returns a copy of the recorded metrics in record order.
func (l *JobLog) Snapshot() []JobMetrics {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]JobMetrics, len(l.jobs))
	copy(out, l.jobs)
	return out
}

// Len returns the number of recorded jobs.
func (l *JobLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.jobs)
}

// TotalWall sums every job's wall time: the serial cost of the work,
// which divided by the batch's real elapsed time gives the achieved
// parallel speedup.
func (l *JobLog) TotalWall() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	var sum time.Duration
	for _, j := range l.jobs {
		sum += j.Wall()
	}
	return sum
}
