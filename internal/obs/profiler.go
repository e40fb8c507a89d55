package obs

import (
	"encoding/json"
	"fmt"
	"io"

	"asap/internal/sim"
)

// Span is one bracketed wait: thread tid spent [From, To) in bucket B.
// Spans nest strictly (Enter/Exit is a stack), so a child span's cycles
// are charged to the child, not the parent.
type Span struct {
	TID    int
	Name   string
	Bucket Bucket
	From   uint64
	To     uint64
}

// frame is one live Enter on a thread's bucket stack.
type frame struct {
	b  Bucket
	at uint64
}

// ThreadProfile is one simulated thread's cycle accounting.
type ThreadProfile struct {
	ID    int
	Name  string
	Start uint64 // virtual time at spawn (or first observation)
	End   uint64 // virtual time last observed

	// Cycles[b] is the number of cycles charged to bucket b. The buckets
	// sum exactly to End-Start: every clock movement is charged somewhere.
	Cycles [NumBuckets]uint64

	stack []frame
}

// Total returns the thread's observed lifetime in cycles.
func (tp *ThreadProfile) Total() uint64 { return tp.End - tp.Start }

// current returns the bucket new cycles are charged to.
func (tp *ThreadProfile) current() Bucket {
	if n := len(tp.stack); n > 0 {
		return tp.stack[n-1].b
	}
	return Compute
}

// Profiler charges every simulated thread-cycle to a Bucket. It implements
// the clock half of sim.Observer; protocol code brackets structure waits
// with Enter/Exit. All methods are nil-safe, so components hold a plain
// *Profiler field that defaults to nil for zero-cost disabled operation
// (the same pattern as memdev.FaultInjector).
type Profiler struct {
	byID  map[int]*ThreadProfile
	order []int

	spanCap int
	spans   []Span
	dropped int
}

// NewProfiler returns an empty profiler. Span recording is off until
// EnableSpans.
func NewProfiler() *Profiler {
	return &Profiler{byID: make(map[int]*ThreadProfile)}
}

// EnableSpans turns on wait-span recording for timeline export, keeping at
// most max spans (<=0 selects 1<<16). Spans beyond the cap are counted but
// not stored.
func (p *Profiler) EnableSpans(max int) {
	if p == nil {
		return
	}
	if max <= 0 {
		max = 1 << 16
	}
	p.spanCap = max
}

func (p *Profiler) profile(t *sim.Thread) *ThreadProfile {
	tp := p.byID[t.ID()]
	if tp == nil {
		tp = &ThreadProfile{ID: t.ID(), Name: t.Name(), Start: t.Now(), End: t.Now()}
		p.byID[t.ID()] = tp
		p.order = append(p.order, t.ID())
	}
	return tp
}

// ThreadStart implements sim.Observer.
func (p *Profiler) ThreadStart(t *sim.Thread) {
	if p == nil {
		return
	}
	p.profile(t)
}

// ClockAdvance implements sim.Observer: delta cycles are charged to the
// thread's current bucket.
func (p *Profiler) ClockAdvance(t *sim.Thread, delta uint64) {
	if p == nil {
		return
	}
	tp := p.profile(t)
	tp.Cycles[tp.current()] += delta
	tp.End += delta
}

// Enter pushes bucket b: until the matching Exit, the thread's cycles are
// charged to b (or to a more deeply nested bucket).
func (p *Profiler) Enter(t *sim.Thread, b Bucket) {
	if p == nil {
		return
	}
	tp := p.profile(t)
	tp.stack = append(tp.stack, frame{b: b, at: t.Now()})
}

// Exit pops the innermost bucket, recording its span when span recording
// is enabled and the wait took nonzero time.
func (p *Profiler) Exit(t *sim.Thread) {
	if p == nil {
		return
	}
	tp := p.byID[t.ID()]
	if tp == nil || len(tp.stack) == 0 {
		panic("obs: Exit without Enter on " + t.Name())
	}
	f := tp.stack[len(tp.stack)-1]
	tp.stack = tp.stack[:len(tp.stack)-1]
	if p.spanCap > 0 && t.Now() > f.at {
		if len(p.spans) < p.spanCap {
			p.spans = append(p.spans, Span{TID: tp.ID, Name: tp.Name, Bucket: f.b, From: f.at, To: t.Now()})
		} else {
			p.dropped++
		}
	}
}

// Wait blocks t until pred holds, charging the wait to bucket b. With a
// nil profiler it only waits.
func (p *Profiler) Wait(t *sim.Thread, b Bucket, pred func() bool) {
	p.Enter(t, b)
	t.WaitUntil(pred)
	p.Exit(t)
}

// Stall advances t by cycles, charging them to bucket b. With a nil
// profiler it only advances.
func (p *Profiler) Stall(t *sim.Thread, b Bucket, cycles uint64) {
	p.Enter(t, b)
	t.Advance(cycles)
	p.Exit(t)
}

// LockBegin implements sim.Observer: mutex contention is LockWait time.
func (p *Profiler) LockBegin(t *sim.Thread) { p.Enter(t, LockWait) }

// LockEnd implements sim.Observer.
func (p *Profiler) LockEnd(t *sim.Thread) { p.Exit(t) }

// Tick implements sim.Observer; the profiler ignores kernel-clock ticks.
func (p *Profiler) Tick(uint64) {}

// Threads returns the per-thread profiles in spawn order.
func (p *Profiler) Threads() []*ThreadProfile {
	if p == nil {
		return nil
	}
	out := make([]*ThreadProfile, 0, len(p.order))
	for _, id := range p.order {
		out = append(out, p.byID[id])
	}
	return out
}

// Spans returns the recorded wait spans in completion order, and how many
// were dropped at the cap.
func (p *Profiler) Spans() (spans []Span, dropped int) {
	if p == nil {
		return nil, 0
	}
	return p.spans, p.dropped
}

// Totals sums the per-thread accounting: cycles per bucket across all
// threads, and the all-bucket total.
func (p *Profiler) Totals() (perBucket [NumBuckets]uint64, total uint64) {
	if p == nil {
		return
	}
	for _, tp := range p.byID {
		for b, c := range tp.Cycles {
			perBucket[b] += c
			total += c
		}
	}
	return
}

// Check verifies the profiler's core invariant: for every thread, the
// bucket cycles sum exactly to the thread's observed lifetime, and no
// Enter is left unmatched. It returns the first violation found (threads
// visited in spawn order), or nil.
func (p *Profiler) Check() error {
	if p == nil {
		return nil
	}
	for _, id := range p.order {
		tp := p.byID[id]
		var sum uint64
		for _, c := range tp.Cycles {
			sum += c
		}
		if sum != tp.Total() {
			return fmt.Errorf("obs: thread %d (%s): bucket cycles %d != lifetime %d",
				tp.ID, tp.Name, sum, tp.Total())
		}
		if len(tp.stack) != 0 {
			return fmt.Errorf("obs: thread %d (%s): %d unmatched Enter(s), innermost %s",
				tp.ID, tp.Name, len(tp.stack), tp.stack[len(tp.stack)-1].b)
		}
	}
	return nil
}

// String renders the per-thread accounting, threads in spawn order,
// buckets in index order, zero buckets omitted.
func (p *Profiler) String() string {
	if p == nil {
		return ""
	}
	var b []byte
	for _, tp := range p.Threads() {
		b = append(b, fmt.Sprintf("%s#%d: %d cycles\n", tp.Name, tp.ID, tp.Total())...)
		for bk, c := range tp.Cycles {
			if c == 0 {
				continue
			}
			b = append(b, fmt.Sprintf("  %-12s %12d (%5.1f%%)\n",
				Bucket(bk), c, 100*float64(c)/float64(tp.Total()))...)
		}
	}
	return string(b)
}

// threadJSON is one thread's entry in the WriteJSON dump.
type threadJSON struct {
	ID     int               `json:"id"`
	Name   string            `json:"name"`
	Start  uint64            `json:"start"`
	End    uint64            `json:"end"`
	Total  uint64            `json:"total"`
	Cycles map[string]uint64 `json:"cycles"` // nonzero buckets only
}

// profileJSON is the WriteJSON document.
type profileJSON struct {
	Threads []threadJSON      `json:"threads"`
	Totals  map[string]uint64 `json:"totals"`
	Total   uint64            `json:"total"`
}

// WriteJSON dumps the accounting as JSON: per-thread nonzero bucket
// cycles (which sum to each thread's total), the all-thread per-bucket
// totals, and the grand total. Map keys marshal sorted, so the output is
// deterministic.
func (p *Profiler) WriteJSON(w io.Writer) error {
	doc := profileJSON{Threads: []threadJSON{}, Totals: map[string]uint64{}}
	for _, tp := range p.Threads() {
		tj := threadJSON{
			ID: tp.ID, Name: tp.Name, Start: tp.Start, End: tp.End,
			Total: tp.Total(), Cycles: map[string]uint64{},
		}
		for b, c := range tp.Cycles {
			if c != 0 {
				tj.Cycles[Bucket(b).String()] = c
			}
		}
		doc.Threads = append(doc.Threads, tj)
	}
	per, total := p.Totals()
	for b, c := range per {
		if c != 0 {
			doc.Totals[Bucket(b).String()] = c
		}
	}
	doc.Total = total
	return json.NewEncoder(w).Encode(doc)
}
