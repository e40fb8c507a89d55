package report

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestProgressCountsAndSlowest(t *testing.T) {
	var b strings.Builder
	p := NewProgress(&b)
	p.Start(3)
	p.Done("fig1/Q/NP", 2*time.Millisecond, true)
	p.Done("fig1/Q/SW", 9*time.Millisecond, true)
	p.Start(2) // batches accumulate
	p.Done("fig7/Q/NP", 1*time.Millisecond, false)
	out := b.String()
	if !strings.Contains(out, "[3/5]") {
		t.Fatalf("running totals missing from %q", out)
	}
	if !strings.Contains(out, "slowest fig1/Q/SW") {
		t.Fatalf("slowest job missing from %q", out)
	}
	if !strings.Contains(out, "failed 1") {
		t.Fatalf("failure count missing from %q", out)
	}
	if !strings.Contains(out, "eta") {
		t.Fatalf("eta missing from %q", out)
	}
	p.Finish()
	if !strings.HasSuffix(b.String(), "\n") {
		t.Fatalf("Finish must terminate the line")
	}
}

func TestProgressFinishWithoutJobsIsSilent(t *testing.T) {
	var b strings.Builder
	p := NewProgress(&b)
	p.Finish()
	if b.Len() != 0 {
		t.Fatalf("idle Finish wrote %q", b.String())
	}
}

// TestProgressConcurrentStartDone hammers one Progress from many
// goroutines, the way a runner pool and asapbench's figure loop overlap:
// batches Start mid-flight while workers Done concurrently. The final
// line must account for every job exactly once and every failure.
func TestProgressConcurrentStartDone(t *testing.T) {
	const workers, jobs = 8, 50
	var b strings.Builder
	p := NewProgress(&b)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < jobs; j++ {
				p.Start(1)
				ok := j%5 != 0
				p.Done(fmt.Sprintf("w%d/j%d", w, j), time.Duration(j)*time.Microsecond, ok)
			}
		}()
	}
	wg.Wait()
	p.Finish()
	out := b.String()
	total := workers * jobs
	if want := fmt.Sprintf("[%d/%d]", total, total); !strings.Contains(out, want) {
		t.Fatalf("final line lost jobs: want %s in tail %q", want, out[max(0, len(out)-120):])
	}
	if want := fmt.Sprintf("failed %d", workers*(jobs/5)); !strings.Contains(out, want) {
		t.Fatalf("failure tally wrong: want %q in tail %q", want, out[max(0, len(out)-120):])
	}
	if !strings.HasSuffix(out, "\n") {
		t.Fatal("Finish must terminate the line")
	}
}

// TestSnapshotRateAndETA drives a fake clock so the sliding-window
// rate is deterministic: 4 completions 1s apart → 1 case/s over the
// window → 6 remaining cases → 6s ETA.
func TestSnapshotRateAndETA(t *testing.T) {
	p := NewTracker()
	now := time.Unix(1000, 0)
	p.now = func() time.Time { return now }
	p.Start(10)
	for i := 0; i < 4; i++ {
		now = now.Add(time.Second)
		p.Done(fmt.Sprintf("case%d", i), time.Millisecond, true)
	}
	s := p.snapshotLocked()
	if s.Done != 4 || s.Total != 10 || s.Failed != 0 {
		t.Fatalf("snapshot counters = %+v", s)
	}
	if s.Current != "case3" {
		t.Fatalf("current = %q, want case3", s.Current)
	}
	// 4 samples spanning 3s → 4/3 cases/s.
	if s.Rate < 1.3 || s.Rate > 1.4 {
		t.Fatalf("rate = %v, want ~1.33", s.Rate)
	}
	wantETA := time.Duration(float64(6) / s.Rate * float64(time.Second))
	if s.ETA != wantETA {
		t.Fatalf("eta = %v, want %v", s.ETA, wantETA)
	}
	if s.ETASec != s.ETA.Seconds() {
		t.Fatalf("eta_sec = %v, want %v", s.ETASec, s.ETA.Seconds())
	}
}

// TestSlidingWindowForgetsOldSamples checks the rate reflects recent
// throughput, not lifetime average: a fast burst followed by silence
// and one late completion must not report the burst rate.
func TestSlidingWindowForgetsOldSamples(t *testing.T) {
	p := NewTracker()
	now := time.Unix(1000, 0)
	p.now = func() time.Time { return now }
	p.Start(100)
	for i := 0; i < 50; i++ {
		now = now.Add(10 * time.Millisecond)
		p.Done("burst", time.Millisecond, true)
	}
	burst := p.snapshotLocked().Rate
	if burst < 50 {
		t.Fatalf("burst rate = %v, want >= 50", burst)
	}
	now = now.Add(time.Minute) // silence longer than the window
	now = now.Add(time.Second)
	p.Done("late", time.Millisecond, true)
	after := p.snapshotLocked().Rate
	if after >= burst/2 {
		t.Fatalf("stale burst still dominates: rate = %v (burst %v)", after, burst)
	}
}

func TestTrackerNeverDraws(t *testing.T) {
	p := NewTracker()
	p.Start(2)
	p.Done("a", time.Millisecond, true)
	p.Finish() // must not panic with nil writer
	s := p.snapshotLocked()
	if s.Done != 1 || s.Total != 2 {
		t.Fatalf("tracker counters = %+v", s)
	}
}

// TestOnUpdateDeliversOrderedSnapshots checks the callback fires for
// every Start/Done with monotonically non-decreasing done counts.
func TestOnUpdateDeliversOrderedSnapshots(t *testing.T) {
	p := NewTracker()
	var got []Snapshot
	p.SetOnUpdate(func(s Snapshot) { got = append(got, s) })
	p.Start(3)
	p.Done("a", time.Millisecond, true)
	p.Done("b", time.Millisecond, false)
	p.Done("c", time.Millisecond, true)
	if len(got) != 4 {
		t.Fatalf("callback count = %d, want 4", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Done < got[i-1].Done {
			t.Fatalf("done regressed at %d: %+v", i, got)
		}
	}
	last := got[len(got)-1]
	if last.Done != 3 || last.Failed != 1 || last.Current != "c" {
		t.Fatalf("terminal snapshot = %+v", last)
	}
}

func TestProgressLineIncludesRate(t *testing.T) {
	var b strings.Builder
	p := NewProgress(&b)
	now := time.Unix(1000, 0)
	p.now = func() time.Time { return now }
	p.Start(4)
	now = now.Add(time.Second)
	p.Done("a", time.Millisecond, true)
	now = now.Add(time.Second)
	p.Done("b", time.Millisecond, true)
	if !strings.Contains(b.String(), "/s") {
		t.Fatalf("rate missing from %q", b.String())
	}
}
