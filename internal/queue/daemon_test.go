package queue

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// testSpec is testExec's job payload.
type testSpec struct {
	Work int64 `json:"work"`
	Spin int   `json:"spin"`
}

// testExec is a deterministic executor: it returns a digest of a short
// hash chain seeded by the spec's Work, so redelivered work reproduces
// the same artifact.
func testExec(ctx context.Context, raw json.RawMessage) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var spec testSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, err
	}
	sum := sha256.Sum256([]byte(fmt.Sprintf("asapd-campaign:%d", spec.Work)))
	for i := 0; i < spec.Spin; i++ {
		sum = sha256.Sum256(sum[:])
	}
	return []byte(fmt.Sprintf("campaign artifact work=%d spin=%d\ndigest %s\n",
		spec.Work, spec.Spin, hex.EncodeToString(sum[:]))), nil
}

// testDaemonConfig is a fast-converging daemon config for unit tests.
func testDaemonConfig(dir string, exec Executor) Config {
	return Config{
		Dir:     dir,
		Workers: 2,
		Policy: Policy{
			MaxDeliveries: 3,
			LeaseTimeout:  2 * time.Second,
			BackoffBase:   time.Millisecond,
			BackoffCap:    4 * time.Millisecond,
		},
		Exec:        exec,
		ExpireEvery: 5 * time.Millisecond,
		SeriesEvery: -1,
		Logger:      DiscardLogger(),
	}
}

// waitIdle polls until the daemon's queue has no pending or leased jobs.
func waitIdle(t *testing.T, d *Daemon) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !d.Q.Idle() {
		if time.Now().After(deadline) {
			t.Fatalf("daemon did not go idle; depths %+v", d.Q.Depths())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestDaemonRunsJobsToCompletion(t *testing.T) {
	d, err := Open(testDaemonConfig(t.TempDir(), testExec))
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	var ids []uint64
	for i := 0; i < 5; i++ {
		spec, _ := json.Marshal(testSpec{Work: int64(i), Spin: 4})
		id, err := d.Submit(spec)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, id)
	}
	waitIdle(t, d)
	for i, id := range ids {
		info, ok := d.Q.Get(id)
		if !ok || info.State != StateDone {
			t.Fatalf("job %d: %+v", id, info)
		}
		spec, _ := json.Marshal(testSpec{Work: int64(i), Spin: 4})
		want, _ := testExec(context.Background(), spec)
		got, err := d.St.Get(info.Hash)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("job %d artifact mismatch: %v", id, err)
		}
	}
	if err := d.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func TestDaemonDeadLettersPoisonJob(t *testing.T) {
	exec := func(ctx context.Context, spec json.RawMessage) ([]byte, error) {
		panic("always poisonous")
	}
	d, err := Open(testDaemonConfig(t.TempDir(), exec))
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	id, err := d.Submit(json.RawMessage(`{"poison":true}`))
	if err != nil {
		t.Fatal(err)
	}
	waitIdle(t, d)
	info, _ := d.Q.Get(id)
	if info.State != StateDead {
		t.Fatalf("poison job state %s, want dead", info.State)
	}
	if info.Deliveries != 3 {
		t.Fatalf("poison job deliveries %d, want MaxDeliveries=3", info.Deliveries)
	}
	if info.LastError == "" {
		t.Fatal("dead letter carries no error")
	}
	d.Drain(context.Background())
}

func TestDaemonValidateGatesSubmit(t *testing.T) {
	cfg := testDaemonConfig(t.TempDir(), testExec)
	wantErr := errors.New("spec rejected")
	cfg.Validate = func(spec json.RawMessage) error { return wantErr }
	d, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	if _, err := d.Submit(json.RawMessage(`{}`)); !errors.Is(err, wantErr) {
		t.Fatalf("submit: %v, want validator error", err)
	}
	if got := d.Q.Counters()[CtrEnqueued]; got != 0 {
		t.Fatalf("rejected spec reached the journal: enqueued=%d", got)
	}
	d.Drain(context.Background())
}

func TestDaemonDrainStopsIntakeAndFinishesInFlight(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	exec := func(ctx context.Context, spec json.RawMessage) ([]byte, error) {
		close(started)
		<-release
		return []byte("slow artifact"), nil
	}
	d, err := Open(testDaemonConfig(t.TempDir(), exec))
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	id, err := d.Submit(json.RawMessage(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	<-started

	drainDone := make(chan error, 1)
	go func() { drainDone <- d.Drain(context.Background()) }()

	// Intake must reject immediately once draining.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, serr := d.Submit(json.RawMessage(`{}`)); errors.Is(serr, ErrDraining) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("submit never started failing with ErrDraining")
		}
		time.Sleep(time.Millisecond)
	}

	close(release) // let the in-flight job finish
	if err := <-drainDone; err != nil {
		t.Fatalf("drain: %v", err)
	}
	info, _ := d.Q.Get(id)
	if info.State != StateDone {
		t.Fatalf("in-flight job not finished by graceful drain: %+v", info)
	}
}

func TestDaemonDrainDeadlineCheckpointsInFlight(t *testing.T) {
	exec := func(ctx context.Context, spec json.RawMessage) ([]byte, error) {
		<-ctx.Done() // never finishes voluntarily
		return nil, ctx.Err()
	}
	dir := t.TempDir()
	d, err := Open(testDaemonConfig(dir, exec))
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	id, err := d.Submit(json.RawMessage(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the job is leased, then drain with an immediate deadline.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if info, _ := d.Q.Get(id); info.State == StateLeased {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never leased")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := d.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// The checkpoint (Release, uncharged) is durable: a restarted daemon
	// sees the job pending with zero charged deliveries and finishes it.
	d2, err := Open(testDaemonConfig(dir, testExec))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	info, ok := d2.Q.Get(id)
	if !ok || info.State != StatePending || info.Deliveries != 0 {
		t.Fatalf("checkpointed job after restart: %+v (ok=%v)", info, ok)
	}
	if d2.Recovered.Orphaned != 0 {
		t.Fatalf("clean drain left orphans: %+v", d2.Recovered)
	}
	d2.Start()
	waitIdle(t, d2)
	if info, _ := d2.Q.Get(id); info.State != StateDone {
		t.Fatalf("job not finished after restart: %+v", info)
	}
	d2.Drain(context.Background())
}

func TestDaemonRestartRecoversOrphanedLease(t *testing.T) {
	dir := t.TempDir()
	exec := func(ctx context.Context, spec json.RawMessage) ([]byte, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	d, err := Open(testDaemonConfig(dir, exec))
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	id, err := d.Submit(json.RawMessage(`{"work":7,"spin":3}`))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if info, _ := d.Q.Get(id); info.State == StateLeased {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never leased")
		}
		time.Sleep(time.Millisecond)
	}
	// A real kill -9 severs the journal and the workers at the same
	// instant: close the journal first so the dying workers cannot
	// checkpoint, leaving the lease as the job's last durable record.
	d.Q.j.Close()
	d.Kill()

	d2, err := Open(testDaemonConfig(dir, testExec))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if d2.Recovered.Orphaned != 1 {
		t.Fatalf("recovered %+v, want 1 orphan", d2.Recovered)
	}
	// The orphan charge is visible on the job.
	if info, _ := d2.Q.Get(id); info.Deliveries != 1 {
		t.Fatalf("orphan charge: %+v", info)
	}
	d2.Start()
	waitIdle(t, d2)
	info, _ := d2.Q.Get(id)
	if info.State != StateDone {
		t.Fatalf("orphaned job not completed after restart: %+v", info)
	}
	want, _ := testExec(context.Background(), json.RawMessage(`{"work":7,"spin":3}`))
	got, err := d2.St.Get(info.Hash)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("artifact after recovery: %v", err)
	}
	d2.Drain(context.Background())
}

func TestDaemonHeartbeatKeepsSlowJobAlive(t *testing.T) {
	// The job takes 8 lease-lifetimes of wall time but heartbeats after
	// each unit of progress, so it must complete on delivery 1.
	cfg := testDaemonConfig(t.TempDir(), nil)
	cfg.Policy.LeaseTimeout = 100 * time.Millisecond
	cfg.Workers = 1
	var calls atomic.Int64
	cfg.Exec = func(ctx context.Context, spec json.RawMessage) ([]byte, error) {
		calls.Add(1)
		for i := 0; i < 8; i++ {
			time.Sleep(50 * time.Millisecond)
			Heartbeat(ctx)
		}
		return []byte("slow but alive"), nil
	}
	d, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	id, err := d.Submit(json.RawMessage(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	waitIdle(t, d)
	info, _ := d.Q.Get(id)
	if info.State != StateDone {
		t.Fatalf("slow job: %+v", info)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("slow job ran %d times; heartbeat failed to hold the lease", got)
	}
	d.Drain(context.Background())
}

func TestDaemonExpiresStalledLease(t *testing.T) {
	cfg := testDaemonConfig(t.TempDir(), nil)
	cfg.Policy.LeaseTimeout = 50 * time.Millisecond
	cfg.Policy.MaxDeliveries = 2
	var calls atomic.Int64
	cfg.Exec = func(ctx context.Context, spec json.RawMessage) ([]byte, error) {
		if calls.Add(1) == 1 {
			<-ctx.Done() // first delivery stalls forever; expiry cancels it
			return nil, ctx.Err()
		}
		return []byte("second delivery succeeds"), nil
	}
	d, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	id, err := d.Submit(json.RawMessage(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	waitIdle(t, d)
	info, _ := d.Q.Get(id)
	if info.State != StateDone || info.Deliveries != 2 {
		t.Fatalf("stalled-then-recovered job: %+v", info)
	}
	if d.Q.Counters()[CtrExpired] == 0 {
		t.Fatal("no lease expiry recorded")
	}
	d.Drain(context.Background())
}

func TestDaemonStats(t *testing.T) {
	d, err := Open(testDaemonConfig(t.TempDir(), testExec))
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	for i := 0; i < 3; i++ {
		if _, err := d.Submit(json.RawMessage(fmt.Sprintf(`{"work":%d,"spin":2}`, i))); err != nil {
			t.Fatal(err)
		}
	}
	waitIdle(t, d)
	st := d.Stats()
	if st.Depths.Done != 3 {
		t.Fatalf("stats depths: %+v", st.Depths)
	}
	if st.Counters[CtrEnqueued] != 3 || st.Counters[CtrAcked] != 3 {
		t.Fatalf("stats counters: %+v", st.Counters)
	}
	if st.Workers != 2 || st.Draining {
		t.Fatalf("stats: %+v", st)
	}
	d.Drain(context.Background())
	if !d.Stats().Draining {
		t.Fatal("stats not draining after drain")
	}
}
