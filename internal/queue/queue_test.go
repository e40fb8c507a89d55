package queue

import (
	"encoding/json"
	"errors"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// fakeClock is a manually advanced clock for deterministic lease and
// backoff testing.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

func testPolicy() Policy {
	return Policy{
		MaxDeliveries: 3,
		LeaseTimeout:  time.Minute,
		BackoffBase:   time.Second,
		BackoffCap:    4 * time.Second,
	}
}

func mustLease(t *testing.T, q *Queue, worker string) *Lease {
	t.Helper()
	l, _, err := q.TryLease(worker)
	if err != nil {
		t.Fatalf("TryLease(%s): %v", worker, err)
	}
	if l == nil {
		t.Fatalf("TryLease(%s): nothing leasable", worker)
	}
	return l
}

func TestQueueLifecycle(t *testing.T) {
	clk := newFakeClock()
	q := New(testPolicy(), Options{Clock: clk.Now})
	id, err := q.Enqueue(json.RawMessage(`{"n":1}`))
	if err != nil {
		t.Fatalf("enqueue: %v", err)
	}
	l := mustLease(t, q, "w0")
	if l.ID != id || l.Delivery != 1 {
		t.Fatalf("lease = %+v", l)
	}
	if info, _ := q.Get(id); info.State != StateLeased {
		t.Fatalf("state %s after lease", info.State)
	}
	if err := q.Ack(l, "sha256-x", ""); err != nil {
		t.Fatalf("ack: %v", err)
	}
	info, _ := q.Get(id)
	if info.State != StateDone || info.Hash != "sha256-x" {
		t.Fatalf("after ack: %+v", info)
	}
	if !q.Idle() {
		t.Fatal("queue not idle after its only job finished")
	}
}

func TestQueueFailBackoffRedeliver(t *testing.T) {
	clk := newFakeClock()
	q := New(testPolicy(), Options{Clock: clk.Now})
	id, _ := q.Enqueue(json.RawMessage(`{}`))
	l := mustLease(t, q, "w0")

	dead, err := q.Fail(l, "boom")
	if err != nil || dead {
		t.Fatalf("fail #1: dead=%v err=%v", dead, err)
	}
	// Backoff gates the retry: nothing leasable until base elapses.
	l2, wait, err := q.TryLease("w1")
	if err != nil || l2 != nil {
		t.Fatalf("leased through backoff gate: %+v, %v", l2, err)
	}
	if wait != time.Second {
		t.Fatalf("gate wait %v, want 1s", wait)
	}
	clk.Advance(time.Second)
	l2 = mustLease(t, q, "w1")
	if l2.ID != id || l2.Delivery != 2 {
		t.Fatalf("redelivery = %+v", l2)
	}
	if got := q.Counters()[CtrRedelivered]; got != 1 {
		t.Fatalf("redelivered counter %d", got)
	}
}

func TestQueueDeadLetterAtMaxDeliveries(t *testing.T) {
	clk := newFakeClock()
	q := New(testPolicy(), Options{Clock: clk.Now}) // MaxDeliveries 3
	id, _ := q.Enqueue(json.RawMessage(`{}`))
	for i := 1; i <= 3; i++ {
		clk.Advance(10 * time.Second) // clear any backoff gate
		l := mustLease(t, q, "w0")
		if l.Delivery != i {
			t.Fatalf("delivery %d on attempt %d", l.Delivery, i)
		}
		dead, err := q.Fail(l, "poison")
		if err != nil {
			t.Fatalf("fail #%d: %v", i, err)
		}
		if want := i == 3; dead != want {
			t.Fatalf("fail #%d: dead=%v, want %v", i, dead, want)
		}
	}
	info, _ := q.Get(id)
	if info.State != StateDead || info.LastError != "poison" {
		t.Fatalf("dead-letter state: %+v", info)
	}
	if l, _, _ := q.TryLease("w0"); l != nil {
		t.Fatalf("dead job leased: %+v", l)
	}
}

func TestQueueBackoffDoublesAndCaps(t *testing.T) {
	p := testPolicy().withDefaults()
	want := []time.Duration{time.Second, 2 * time.Second, 4 * time.Second, 4 * time.Second, 4 * time.Second}
	for i, w := range want {
		if got := p.Backoff(i + 1); got != w {
			t.Errorf("Backoff(%d) = %v, want %v", i+1, got, w)
		}
	}
}

func TestQueueReleaseIsUncharged(t *testing.T) {
	clk := newFakeClock()
	q := New(testPolicy(), Options{Clock: clk.Now})
	id, _ := q.Enqueue(json.RawMessage(`{}`))
	l := mustLease(t, q, "w0")
	if err := q.Release(l); err != nil {
		t.Fatalf("release: %v", err)
	}
	info, _ := q.Get(id)
	if info.State != StatePending || info.Deliveries != 0 {
		t.Fatalf("after release: %+v", info)
	}
	// Immediately leasable again — no backoff gate, and still delivery 1.
	l2 := mustLease(t, q, "w1")
	if l2.Delivery != 1 {
		t.Fatalf("post-release delivery %d, want 1", l2.Delivery)
	}
}

func TestQueueLeaseLostGuardsDoubleCompletion(t *testing.T) {
	clk := newFakeClock()
	q := New(testPolicy(), Options{Clock: clk.Now})
	q.Enqueue(json.RawMessage(`{}`))
	l := mustLease(t, q, "w0")

	// The lease expires; the job is redelivered to another worker.
	clk.Advance(2 * time.Minute)
	expired, err := q.ExpireLeases()
	if err != nil || len(expired) != 1 {
		t.Fatalf("expire: %v %v", expired, err)
	}
	clk.Advance(10 * time.Second)
	l2 := mustLease(t, q, "w1")

	// The original worker wakes up: all of its verbs must bounce.
	if err := q.Ack(l, "sha256-stale", ""); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("stale ack: %v", err)
	}
	if _, err := q.Fail(l, "stale"); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("stale fail: %v", err)
	}
	if err := q.Release(l); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("stale release: %v", err)
	}
	// The live lease still works, exactly once.
	if err := q.Ack(l2, "sha256-good", ""); err != nil {
		t.Fatalf("live ack: %v", err)
	}
	if err := q.Ack(l2, "sha256-good", ""); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("double ack: %v", err)
	}
	if got := q.Counters()[CtrLeaseLost]; got != 4 {
		t.Fatalf("lease_lost counter %d, want 4", got)
	}
}

func TestQueueExtendPushesDeadline(t *testing.T) {
	clk := newFakeClock()
	q := New(testPolicy(), Options{Clock: clk.Now})
	q.Enqueue(json.RawMessage(`{}`))
	l := mustLease(t, q, "w0")

	// Heartbeats keep a progressing job alive past the lease timeout...
	for i := 0; i < 3; i++ {
		clk.Advance(45 * time.Second)
		if err := q.Extend(l); err != nil {
			t.Fatalf("extend #%d: %v", i, err)
		}
		if ex, _ := q.ExpireLeases(); len(ex) != 0 {
			t.Fatalf("lease expired despite heartbeat: %+v", ex)
		}
	}
	// ...but a stall (no heartbeat) still expires.
	clk.Advance(2 * time.Minute)
	ex, _ := q.ExpireLeases()
	if len(ex) != 1 {
		t.Fatalf("stalled lease not expired: %+v", ex)
	}
	if err := q.Extend(l); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("extend after expiry: %v", err)
	}
}

func TestQueueTryLeaseOldestFirst(t *testing.T) {
	clk := newFakeClock()
	q := New(testPolicy(), Options{Clock: clk.Now})
	var ids []uint64
	for i := 0; i < 3; i++ {
		id, _ := q.Enqueue(json.RawMessage(`{}`))
		ids = append(ids, id)
	}
	for _, want := range ids {
		l := mustLease(t, q, "w0")
		if l.ID != want {
			t.Fatalf("leased %d, want %d (oldest first)", l.ID, want)
		}
		q.Ack(l, "sha256-x", "")
	}
}

func TestQueueRestoreReplaysAndOrphans(t *testing.T) {
	clk := newFakeClock()
	path := filepath.Join(t.TempDir(), "journal.asapq")
	j, _, _, err := OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	q := New(testPolicy(), Options{Journal: j, Clock: clk.Now})
	idDone, _ := q.Enqueue(json.RawMessage(`{"j":"done"}`))
	idOrphan, _ := q.Enqueue(json.RawMessage(`{"j":"orphan"}`))
	idPending, _ := q.Enqueue(json.RawMessage(`{"j":"pending"}`))
	l := mustLease(t, q, "w0") // idDone
	q.Ack(l, "sha256-done", "")
	mustLease(t, q, "w1") // idOrphan — never acked: the "daemon dies here" point
	q.Close()

	// Restart: replay the journal into a fresh queue.
	j2, recs, _, err := OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	q2, recov, err := Restore(testPolicy(), Options{Journal: j2, Clock: clk.Now}, recs)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if recov.Jobs != 3 || recov.Done != 1 || recov.Orphaned != 1 || recov.Pending != 2 {
		t.Fatalf("recover result: %+v", recov)
	}
	if info, _ := q2.Get(idDone); info.State != StateDone || info.Hash != "sha256-done" {
		t.Fatalf("done job after restore: %+v", info)
	}
	// The orphaned job was charged a delivery and gated for retry.
	info, _ := q2.Get(idOrphan)
	if info.State != StatePending || info.Deliveries != 1 {
		t.Fatalf("orphan after restore: %+v", info)
	}
	if info, _ := q2.Get(idPending); info.State != StatePending || info.Deliveries != 0 {
		t.Fatalf("pending job after restore: %+v", info)
	}
	q2.Close()
	// The orphan expiry was itself journaled: a second restore agrees.
	j3, recs2, _, err := OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j3.Close()
	q3, recov3, err := Restore(testPolicy(), Options{Clock: clk.Now}, recs2)
	if err != nil {
		t.Fatalf("second restore: %v", err)
	}
	if recov3.Orphaned != 0 {
		t.Fatalf("orphan expiry not durable: %+v", recov3)
	}
	if info, _ := q3.Get(idOrphan); info.Deliveries != 1 {
		t.Fatalf("orphan charge not durable: %+v", info)
	}
}

func TestQueueRestoreRejectsCorruptHistory(t *testing.T) {
	histories := [][]Record{
		{{Type: RecEnqueue, ID: 1}, {Type: RecEnqueue, ID: 1}},
		{{Type: RecLease, ID: 1, Delivery: 1}},
		{{Type: RecEnqueue, ID: 1}, {Type: RecAck, ID: 1, Delivery: 1}},
		{{Type: RecEnqueue, ID: 1}, {Type: RecLease, ID: 1, Delivery: 2}},
		{
			{Type: RecEnqueue, ID: 1},
			{Type: RecLease, ID: 1, Delivery: 1},
			{Type: RecAck, ID: 1, Delivery: 1},
			{Type: RecAck, ID: 1, Delivery: 1},
		},
	}
	for i, recs := range histories {
		if _, _, err := Restore(testPolicy(), Options{}, recs); !errors.Is(err, ErrCorrupt) {
			t.Errorf("history %d: got %v, want ErrCorrupt", i, err)
		}
	}
}

func TestQueueVolatileModeWorksWithoutJournal(t *testing.T) {
	q := New(testPolicy(), Options{})
	id, err := q.Enqueue(json.RawMessage(`{}`))
	if err != nil {
		t.Fatalf("volatile enqueue: %v", err)
	}
	l := mustLease(t, q, "w0")
	if err := q.Ack(l, "sha256-x", ""); err != nil {
		t.Fatalf("volatile ack: %v", err)
	}
	if info, _ := q.Get(id); info.State != StateDone {
		t.Fatalf("volatile state: %+v", info)
	}
}

func TestQueueClosedOperationsFail(t *testing.T) {
	q := New(testPolicy(), Options{})
	q.Close()
	if _, err := q.Enqueue(json.RawMessage(`{}`)); !errors.Is(err, ErrClosed) {
		t.Fatalf("enqueue after close: %v", err)
	}
	if _, _, err := q.TryLease("w"); !errors.Is(err, ErrClosed) {
		t.Fatalf("lease after close: %v", err)
	}
}
