package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"sync"
	"testing"

	"asap/internal/campaign"
	"asap/internal/metrics"
	"asap/internal/queue"
	"asap/internal/report"
	"asap/internal/resultcache"
	"asap/internal/sweep"
)

// TestSweepExecMatchesCLIBytes is the byte-identity claim at the unit
// level: the daemon's executor produces exactly the bytes the CLI's
// renderer produces for the same spec, because they are the same code
// path.
func TestSweepExecMatchesCLIBytes(t *testing.T) {
	raw := json.RawMessage(`{"experiments":["config","area"],"scale":"quick"}`)

	got, err := runSweepJob(context.Background(), raw, nil, "", nil)
	if err != nil {
		t.Fatalf("runSweepJob: %v", err)
	}

	var spec sweep.Spec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if _, err := sweep.Execute(context.Background(), spec, &want, sweep.Options{}); err != nil {
		t.Fatalf("sweep.Execute: %v", err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("daemon executor output (%d bytes) differs from CLI renderer (%d bytes)",
			len(got), want.Len())
	}
	if len(got) == 0 {
		t.Fatal("empty sweep output")
	}
}

// TestSweepExecDeterministic reruns the same spec and demands identical
// bytes — the property that makes redelivered jobs land on the same
// content address.
func TestSweepExecDeterministic(t *testing.T) {
	raw := json.RawMessage(`{"experiments":["config"],"scale":"quick"}`)
	a, err := runSweepJob(context.Background(), raw, nil, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runSweepJob(context.Background(), raw, nil, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("same spec produced different bytes across runs")
	}
}

// TestSweepExecOutputNeutralUnderObservation is the observability
// neutrality gate: running the executor with a daemon's full
// instrumentation attached — an artifact sink and a progress publisher —
// must produce byte-identical result output to a bare run, while the
// side channels actually carry artifacts and progress events.
func TestSweepExecOutputNeutralUnderObservation(t *testing.T) {
	raw := json.RawMessage(`{"experiments":["fig8"],"scale":"quick"}`)

	bare, err := runSweepJob(context.Background(), raw, nil, "", nil)
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var arts []queue.RawArtifact
	var snaps []report.Snapshot
	ctx := queue.WithArtifactSink(context.Background(), func(a queue.RawArtifact) {
		mu.Lock()
		arts = append(arts, a)
		mu.Unlock()
	})
	ctx = queue.WithProgressPublisher(ctx, func(s report.Snapshot) {
		mu.Lock()
		snaps = append(snaps, s)
		mu.Unlock()
	})

	observed, err := runSweepJob(ctx, raw, nil, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bare, observed) {
		t.Fatalf("observation changed the output: bare %d bytes, observed %d bytes",
			len(bare), len(observed))
	}

	mu.Lock()
	defer mu.Unlock()
	if len(snaps) == 0 {
		t.Fatal("no progress snapshots published")
	}
	last := snaps[len(snaps)-1]
	if last.Done != last.Total || last.Total == 0 {
		t.Fatalf("terminal snapshot incomplete: %+v", last)
	}
	wantKinds := map[string]bool{"profile": false, "timeline": false, "series": false}
	for _, a := range arts {
		if _, ok := wantKinds[a.Kind]; ok {
			wantKinds[a.Kind] = true
		}
		if len(a.Data) == 0 {
			t.Errorf("artifact %s is empty", a.Name)
		}
	}
	for kind, seen := range wantKinds {
		if !seen {
			t.Errorf("no %s artifact collected (got %d artifacts)", kind, len(arts))
		}
	}
}

// TestObserveArtifactsDeterministic reruns the instrumented observer
// pass and demands identical bytes — the property that makes manifest
// hashes idempotent across job redeliveries.
func TestObserveArtifactsDeterministic(t *testing.T) {
	spec := sweep.Spec{Experiments: []string{"config"}, Scale: "quick"}
	a, err := sweep.ObserveArtifacts(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sweep.ObserveArtifacts(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("artifact counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i].Data, b[i].Data) {
			t.Errorf("artifact %s not deterministic", a[i].Name)
		}
	}
}

func TestValidateSpec(t *testing.T) {
	for _, good := range []string{
		`{"experiments":["fig7"]}`,
		`{"experiments":["all"],"scale":"full","parallel":4}`,
		`{"experiments":["profile"],"profile_bench":"BN"}`,
	} {
		if err := validateSpec(json.RawMessage(good)); err != nil {
			t.Errorf("validateSpec(%s): %v", good, err)
		}
	}
	for _, bad := range []string{
		`{}`,
		`{"experiments":["nope"]}`,
		`{"experiments":["fig7"],"scale":"huge"}`,
		`{"experiments":["fig7"],"parallel":-1}`,
		`{"experiments":["fig1"],"profile_bench":"XX"}`,
		`[1,2,3]`,
	} {
		if err := validateSpec(json.RawMessage(bad)); err == nil {
			t.Errorf("validateSpec(%s): accepted", bad)
		}
	}
}

// TestSweepExecWarmCacheBytesIdentical: a second submission of the same
// spec against the daemon's result cache must be served from cache (every
// cell a hit) with byte-identical output — the redelivery/resubmission
// fast path.
func TestSweepExecWarmCacheBytesIdentical(t *testing.T) {
	t.Setenv(resultcache.CodeVersionEnv, "asapd-test")
	store, err := resultcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	raw := json.RawMessage(`{"experiments":["fig1"],"scale":"quick"}`)
	cold, err := runSweepJob(context.Background(), raw, store, "asapd-test", nil)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := runSweepJob(context.Background(), raw, store, "asapd-test", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatal("warm submission bytes differ from cold")
	}
	hits, misses, _ := store.Stats()
	if hits == 0 || hits != misses {
		t.Fatalf("warm submission not fully served from cache: hits=%d misses=%d", hits, misses)
	}
}

// TestSweepExecObserveCacheArtifactsIdentical: under an artifact sink the
// executor's second run of a spec reads its observe artifacts from the
// result cache, and lists exactly the artifacts — names, kinds, content
// types, bytes — of the first, computed run and of an uncached run. The
// source of each observe run is counted on asapd_observe_runs_total.
func TestSweepExecObserveCacheArtifactsIdentical(t *testing.T) {
	store, err := resultcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	observeRuns := metrics.NewRegistry().CounterVec("asapd_observe_runs_total", "test", "source")
	raw := json.RawMessage(`{"experiments":["config"],"scale":"quick"}`)
	collect := func(exec queue.Executor) []queue.RawArtifact {
		var mu sync.Mutex
		var arts []queue.RawArtifact
		ctx := queue.WithArtifactSink(context.Background(), func(a queue.RawArtifact) {
			mu.Lock()
			arts = append(arts, a)
			mu.Unlock()
		})
		if _, err := exec(ctx, raw); err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		defer mu.Unlock()
		return arts
	}

	exec := newSweepExec(store, "asapd-test", observeRuns)
	uncached := collect(newSweepExec(nil, "", nil))
	cold := collect(exec)
	warm := collect(exec)
	if got := observeRuns.With("computed").Value(); got != 1 {
		t.Errorf("computed observe runs = %v, want 1", got)
	}
	if got := observeRuns.With("cache").Value(); got != 1 {
		t.Errorf("cached observe runs = %v, want 1", got)
	}
	if len(cold) != 3 {
		t.Fatalf("cold run collected %d artifacts, want 3", len(cold))
	}
	for name, arts := range map[string][]queue.RawArtifact{"warm": warm, "uncached": uncached} {
		if len(arts) != len(cold) {
			t.Fatalf("%s run collected %d artifacts, cold %d", name, len(arts), len(cold))
		}
		for i, a := range arts {
			c := cold[i]
			if a.Name != c.Name || a.Kind != c.Kind || a.ContentType != c.ContentType || !bytes.Equal(a.Data, c.Data) {
				t.Errorf("%s artifact %d (%s, %d bytes) differs from cold (%s, %d bytes)",
					name, i, a.Name, len(a.Data), c.Name, len(c.Data))
			}
		}
	}
}

// TestIOCampaignSeed7Golden pins the hostile-I/O campaign byte for byte:
// FaultFS draws one random number per mutating operation and trips count
// operations, so an unchanged report proves the durable writers still
// make the same I/O calls in the same order. docs/iocampaign-seed7.json
// is `asapd -iocampaign 300 -seed 7` stdout; CI cmps it and the seed-1234
// file against the real binary.
func TestIOCampaignSeed7Golden(t *testing.T) {
	if testing.Short() {
		t.Skip("300-case campaign; skipped under -short")
	}
	want, err := os.ReadFile("../../docs/iocampaign-seed7.json")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if code := runCampaign(&got, campaign.IO, campaign.Config{Cases: 300, Seed: 7, Dir: t.TempDir()}); code != 0 {
		t.Fatalf("campaign exit %d", code)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("report differs from docs/iocampaign-seed7.json:\n%s", got.String())
	}
}
