package queue

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"asap/internal/iofault"
)

// TestDegradedModeLifecycle walks the full disk-budget state machine
// through its cache-budget lens, which the test controls exactly:
// healthy -> soft breach (cache shed, intake still open) -> hard breach
// (intake 503s, status/metrics/results keep serving) -> hysteresis
// (small dips do not clear a level) -> recovery.
func TestDegradedModeLifecycle(t *testing.T) {
	var cacheBytes atomic.Int64
	var shedCalls atomic.Int64
	cfg := testDaemonConfig(t.TempDir(), testExec)
	cfg.Budget = BudgetConfig{Cache: StoreBudget{Soft: 1000, Hard: 2000}}
	cfg.CacheUsage = func() int64 { return cacheBytes.Load() }
	cfg.CacheShed = func() (int64, error) {
		shedCalls.Add(1)
		return 100, nil
	}
	d, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	defer d.Kill()
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	submit := func() (int, error) {
		spec, _ := json.Marshal(testSpec{Work: 1, Spin: 2})
		resp, err := http.Post(srv.URL+"/api/v1/jobs", "application/json", bytes.NewReader(spec))
		if err != nil {
			return 0, err
		}
		resp.Body.Close()
		return resp.StatusCode, nil
	}
	get := func(path string) int {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	step := func(usage int64, wantLevel int) {
		t.Helper()
		cacheBytes.Store(usage)
		d.checkBudgets()
		if got := d.DegradedLevel(); got != wantLevel {
			t.Fatalf("usage %d: degraded level %d, want %d", usage, got, wantLevel)
		}
		if d.Stats().Degraded != wantLevel {
			t.Fatalf("usage %d: Stats().Degraded = %d, want %d", usage, d.Stats().Degraded, wantLevel)
		}
	}

	// Healthy: everything serves.
	step(0, 0)
	if code, _ := submit(); code != http.StatusAccepted {
		t.Fatalf("healthy submit: %d", code)
	}
	waitIdle(t, d)

	// Soft breach: cache shed once, intake still open.
	step(1200, 1)
	if shedCalls.Load() != 1 {
		t.Fatalf("soft breach shed the cache %d times, want 1", shedCalls.Load())
	}
	if code, _ := submit(); code != http.StatusAccepted {
		t.Fatalf("submit at soft breach: %d, want 202", code)
	}
	waitIdle(t, d)

	// Hard breach: new intake 503s, everything else keeps serving.
	step(2500, 2)
	if shedCalls.Load() != 2 {
		t.Fatalf("hard breach: %d shed calls, want 2 (every upward move sheds)", shedCalls.Load())
	}
	if code, _ := submit(); code != http.StatusServiceUnavailable {
		t.Fatalf("submit at hard breach: %d, want 503", code)
	}
	if _, err := d.Submit(json.RawMessage(`{}`)); err != ErrDegraded {
		t.Fatalf("Submit at hard breach: %v, want ErrDegraded", err)
	}
	if ok, reason := d.Ready(); ok || reason == "" {
		t.Fatalf("Ready at hard breach: %v %q, want not-ready with reason", ok, reason)
	}
	if code := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz at hard breach: %d, want 503", code)
	}
	for _, path := range []string{"/healthz", "/api/v1/jobs", "/api/v1/stats", "/metrics"} {
		if code := get(path); code != http.StatusOK {
			t.Fatalf("%s at hard breach: %d, want 200 (degraded must not black out reads)", path, code)
		}
	}
	samples, _ := scrapeMetrics(t, srv.URL)
	foundGauge := false
	for _, s := range samples {
		if s.name == "asapd_degraded" {
			foundGauge = true
			if s.value != 2 {
				t.Fatalf("asapd_degraded = %v at hard breach, want 2", s.value)
			}
		}
	}
	if !foundGauge {
		t.Fatal("asapd_degraded missing from exposition")
	}

	// Hysteresis: dipping just below a watermark does not clear the
	// level — it takes a 1/8 drop below the line that raised it.
	step(1900, 2) // hard 2000, hysteresis floor 1750: still hard
	step(1700, 1) // below 1750: down to soft
	step(950, 1)  // soft 1000, hysteresis floor 875: still soft
	if code, _ := submit(); code != http.StatusAccepted {
		t.Fatalf("submit after hard cleared: %d, want 202", code)
	}
	waitIdle(t, d)

	// Recovery: well below every watermark, intake and readiness return.
	step(100, 0)
	if ok, reason := d.Ready(); !ok {
		t.Fatalf("Ready after recovery: %q", reason)
	}
	if code := get("/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz after recovery: %d", code)
	}
	// Downward transitions must not shed again.
	if shedCalls.Load() != 2 {
		t.Fatalf("%d shed calls after recovery, want 2", shedCalls.Load())
	}
}

// TestDegradedModeStoreBudget: the artifact store's own footprint
// (seeded by walking at open, advanced by Put) drives the same
// machinery — no hooks involved.
func TestDegradedModeStoreBudget(t *testing.T) {
	cfg := testDaemonConfig(t.TempDir(), testExec)
	cfg.Budget = BudgetConfig{Store: StoreBudget{Hard: 1 << 10}}
	d, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Kill()

	d.checkBudgets()
	if d.DegradedLevel() != 0 {
		t.Fatalf("empty store degraded level %d", d.DegradedLevel())
	}
	if _, err := d.St.Put(make([]byte, 2<<10)); err != nil {
		t.Fatal(err)
	}
	d.checkBudgets()
	if d.DegradedLevel() != 2 {
		t.Fatalf("level %d after blowing the store hard budget, want 2", d.DegradedLevel())
	}
	if _, err := d.Submit(json.RawMessage(`{}`)); err != ErrDegraded {
		t.Fatalf("Submit: %v, want ErrDegraded", err)
	}
}

// TestIOErrorCounterPopulates: injected faults on the journal and the
// artifact store surface as asapd_io_errors_total{path,class} samples.
func TestIOErrorCounterPopulates(t *testing.T) {
	ffs := iofault.NewFaultFS(iofault.OS{}, 3)
	cfg := testDaemonConfig(t.TempDir(), testExec)
	cfg.FS = ffs
	d, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Kill()
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	ffs.Arm(iofault.Trip{Op: iofault.OpWrite, Class: iofault.ClassENOSPC, N: 1, Substr: segName(1)})
	if _, err := d.Q.Enqueue(json.RawMessage(`{"k":1}`)); err == nil {
		t.Fatal("enqueue under journal ENOSPC succeeded")
	}
	ffs.Arm(iofault.Trip{Op: iofault.OpSync, Class: iofault.ClassEIO, N: 1, Substr: "objects"})
	if _, err := d.St.Put([]byte("doomed artifact")); err == nil {
		t.Fatal("store put under EIO sync succeeded")
	}

	samples, _ := scrapeMetrics(t, srv.URL)
	want := map[string]bool{
		`asapd_io_errors_total{path="journal",class="enospc"}`: false,
		`asapd_io_errors_total{path="store",class="eio"}`:      false,
	}
	for _, s := range samples {
		if _, ok := want[s.name]; ok {
			want[s.name] = s.value >= 1
		}
	}
	for series, ok := range want {
		if !ok {
			t.Errorf("missing or zero sample %s", series)
		}
	}

	// The injections left no damage behind: the journal rolled back and
	// the store's temp file never renamed into place. A clean reopen
	// proves it.
	d.Kill()
	d2, err := Open(testDaemonConfig(cfg.Dir, testExec))
	if err != nil {
		t.Fatalf("reopen after injected faults: %v", err)
	}
	defer d2.Kill()
	if d2.JournalRep.TornBytes != 0 {
		t.Fatalf("torn bytes %d after rolled-back append", d2.JournalRep.TornBytes)
	}
	if d2.St.Bytes() != 0 {
		t.Fatalf("store holds %d bytes after a failed put", d2.St.Bytes())
	}
}
