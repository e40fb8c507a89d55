package runner

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"asap/internal/sim"
	"asap/internal/stats"
)

// TestCollectOrderStableUnderJitter: results must land at their
// submission index even when jobs finish wildly out of order.
func TestCollectOrderStableUnderJitter(t *testing.T) {
	const n = 64
	rng := rand.New(rand.NewSource(1))
	jobs := make([]Job[int], n)
	for i := range jobs {
		i := i
		d := time.Duration(rng.Intn(4)) * time.Millisecond
		jobs[i] = Job[int]{
			Label: fmt.Sprintf("j%02d", i),
			Run: func() int {
				time.Sleep(d)
				return i * i
			},
		}
	}
	out, err := Collect(New(8), jobs)
	if err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("result %d landed at the wrong index: got %d want %d", i, v, i*i)
		}
	}
}

// TestOneWorkerMatchesSerialBaseline: a one-worker pool must execute the
// jobs in submission order, one at a time, exactly like the plain loop
// the figure runners used before the pool existed.
func TestOneWorkerMatchesSerialBaseline(t *testing.T) {
	const n = 32
	var execOrder []int
	jobs := make([]Job[int], n)
	for i := range jobs {
		i := i
		jobs[i] = Job[int]{
			Label: fmt.Sprintf("j%d", i),
			Run: func() int {
				execOrder = append(execOrder, i) // safe: one worker
				return 3 * i
			},
		}
	}
	out, err := Collect(New(1), jobs)
	if err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	serial := make([]int, n)
	for i := range serial {
		serial[i] = 3 * i
	}
	for i := range out {
		if out[i] != serial[i] {
			t.Fatalf("result %d: got %d want %d", i, out[i], serial[i])
		}
		if execOrder[i] != i {
			t.Fatalf("one-worker pool ran job %d at position %d", execOrder[i], i)
		}
	}
}

// TestCollectPropagatesPanic: a panicking job becomes a *PanicError
// carrying its label; the other jobs still run to completion.
func TestCollectPropagatesPanic(t *testing.T) {
	const n = 8
	var ran atomic.Int64
	jobs := make([]Job[int], n)
	for i := range jobs {
		i := i
		jobs[i] = Job[int]{
			Label: fmt.Sprintf("j%d", i),
			Run: func() int {
				ran.Add(1)
				if i == 5 {
					panic("inconsistent state")
				}
				return i
			},
		}
	}
	out, err := Collect(New(4), jobs)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PanicError, got %v", err)
	}
	if pe.Label != "j5" || pe.Value != "inconsistent state" {
		t.Fatalf("panic not preserved: %+v", pe)
	}
	if ran.Load() != n {
		t.Fatalf("remaining jobs should still run: %d of %d ran", ran.Load(), n)
	}
	if out[0] != 0 || out[7] != 7 {
		t.Fatalf("successful results must still be assembled: %v", out)
	}
	if out[5] != 0 {
		t.Fatalf("failed index must hold the zero value, got %d", out[5])
	}
}

// TestPanicErrorUnwrapsErrorValues: a job panicking with an error value
// (the experiment layer re-panics *sim.StallError this way) is reachable
// through errors.As on the Collect error; non-error panics unwrap to nil.
func TestPanicErrorUnwrapsErrorValues(t *testing.T) {
	sentinel := errors.New("stalled at cycle 9")
	_, err := Collect(New(2), []Job[int]{
		{Label: "stall", Run: func() int { panic(sentinel) }},
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("errors.Is cannot see through PanicError: %v", err)
	}
	if (&PanicError{Value: "plain string"}).Unwrap() != nil {
		t.Fatal("non-error panic value must unwrap to nil")
	}
}

// TestCollectFirstErrorDeterministic: with several panicking jobs, the
// returned error is the earliest-submitted one regardless of scheduling.
func TestCollectFirstErrorDeterministic(t *testing.T) {
	jobs := make([]Job[int], 10)
	for i := range jobs {
		i := i
		jobs[i] = Job[int]{
			Label: fmt.Sprintf("j%d", i),
			Run: func() int {
				if i == 3 || i == 7 {
					panic(i)
				}
				return i
			},
		}
	}
	for trial := 0; trial < 4; trial++ {
		_, err := Collect(New(8), jobs)
		var pe *PanicError
		if !errors.As(err, &pe) || pe.Label != "j3" {
			t.Fatalf("trial %d: want earliest panic j3, got %v", trial, err)
		}
	}
}

// measResult exercises the Measurable lift into stats.JobMetrics.
type measResult struct {
	cycles uint64
	ops    int64
}

func (m measResult) SimCycles() uint64 { return m.cycles }
func (m measResult) SimOps() int64     { return m.ops }

func TestMetricsRecordedInSubmissionOrder(t *testing.T) {
	log := &stats.JobLog{}
	p := New(4)
	p.SetMetrics(log)
	const n = 12
	jobs := make([]Job[measResult], n)
	for i := range jobs {
		i := i
		jobs[i] = Job[measResult]{
			Label: fmt.Sprintf("m%d", i),
			Run: func() measResult {
				return measResult{cycles: uint64(1000 + i), ops: int64(10 * (i + 1))}
			},
		}
	}
	if _, err := Collect(p, jobs); err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	snap := log.Snapshot()
	if len(snap) != n {
		t.Fatalf("want %d metrics, got %d", n, len(snap))
	}
	for i, m := range snap {
		if m.Label != fmt.Sprintf("m%d", i) {
			t.Fatalf("metrics out of submission order at %d: %q", i, m.Label)
		}
		if m.Cycles != uint64(1000+i) || m.Ops != int64(10*(i+1)) {
			t.Fatalf("simulated metrics not lifted: %+v", m)
		}
		if m.WallNS < 0 {
			t.Fatalf("negative wall time: %+v", m)
		}
		if m.Ops > 0 && m.WallNS > 0 && m.OpsPerSec <= 0 {
			t.Fatalf("ops/sec not derived: %+v", m)
		}
	}
	if slow, ok := log.Slowest(); !ok || slow.Label == "" {
		t.Fatalf("Slowest should report a job: %+v ok=%v", slow, ok)
	}
	if log.TotalWall() < 0 {
		t.Fatalf("TotalWall negative")
	}
}

// countingReporter verifies the pool's progress callbacks.
type countingReporter struct {
	started int
	done    int
	failed  int
}

func (r *countingReporter) Start(total int) { r.started += total }
func (r *countingReporter) Done(label string, wall time.Duration, ok bool) {
	r.done++
	if !ok {
		r.failed++
	}
}

func TestReporterSeesEveryJob(t *testing.T) {
	rep := &countingReporter{}
	p := New(3)
	p.SetReporter(rep)
	jobs := make([]Job[int], 9)
	for i := range jobs {
		i := i
		jobs[i] = Job[int]{Label: fmt.Sprintf("r%d", i), Run: func() int {
			if i == 4 {
				panic("boom")
			}
			return i
		}}
	}
	_, err := Collect(p, jobs)
	if err == nil {
		t.Fatalf("want error from panicking job")
	}
	if rep.started != 9 || rep.done != 9 || rep.failed != 1 {
		t.Fatalf("reporter missed callbacks: %+v", rep)
	}
}

// TestWorkersClampedToJobs: a wide pool on a short batch must not
// deadlock or leak goroutines waiting on the index channel.
func TestWorkersClampedToJobs(t *testing.T) {
	out, err := Collect(New(16), []Job[string]{{Label: "only", Run: func() string { return "x" }}})
	if err != nil || len(out) != 1 || out[0] != "x" {
		t.Fatalf("got %v, %v", out, err)
	}
	if out, err := Collect[string](New(4), nil); err != nil || len(out) != 0 {
		t.Fatalf("empty batch: got %v, %v", out, err)
	}
}

func TestNewDefaultsToGOMAXPROCS(t *testing.T) {
	if New(0).Workers() < 1 {
		t.Fatalf("zero width must default to at least one worker")
	}
	if w := New(7).Workers(); w != 7 {
		t.Fatalf("explicit width not kept: %d", w)
	}
}

// TestCollectCatchesSimulatedThreadPanic: a panic in a simulated thread
// reaches the job's goroutine through sim.Kernel.Run, so the pool reports
// it as that job's *PanicError instead of the process crashing.
func TestCollectCatchesSimulatedThreadPanic(t *testing.T) {
	jobs := []Job[int]{
		{Label: "ok", Run: func() int { return 1 }},
		{Label: "sim", Run: func() int {
			k := sim.NewKernel()
			k.Spawn("bad", func(th *sim.Thread) {
				th.Advance(3)
				panic("boom")
			})
			k.Run()
			return 2
		}},
	}
	out, err := Collect(New(2), jobs)
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Label != "sim" || pe.Value != "boom" {
		t.Fatalf("want PanicError{sim, boom}, got %v", err)
	}
	if out[0] != 1 || out[1] != 0 {
		t.Fatalf("results %v, want [1 0]", out)
	}
}
