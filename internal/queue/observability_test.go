package queue

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"asap/internal/report"
)

// expoSample is one parsed sample line from the /metrics exposition.
type expoSample struct {
	name   string // full series: name plus label set, verbatim
	metric string // metric name only
	value  float64
}

// parseExposition parses Prometheus text exposition strictly: every line
// must be a HELP comment, a TYPE comment, or a well-formed sample whose
// metric name was announced by a TYPE line. It returns the samples and
// the metric->type table.
func parseExposition(t *testing.T, body string) ([]expoSample, map[string]string) {
	t.Helper()
	types := make(map[string]string)
	var samples []expoSample
	for ln, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			if !strings.Contains(rest, " ") {
				t.Fatalf("line %d: HELP without text: %q", ln+1, line)
			}
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			parts := strings.Fields(rest)
			if len(parts) != 2 {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			switch parts[1] {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("line %d: unknown metric type %q", ln+1, parts[1])
			}
			types[parts[0]] = parts[1]
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("line %d: unrecognized comment: %q", ln+1, line)
		}
		// Sample: name[{labels}] value — split on the last space so
		// label values containing spaces stay intact.
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("line %d: malformed sample: %q", ln+1, line)
		}
		series, valStr := line[:sp], line[sp+1:]
		v, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("line %d: bad sample value %q: %v", ln+1, valStr, err)
		}
		metric := series
		if i := strings.IndexByte(series, '{'); i >= 0 {
			if !strings.HasSuffix(series, "}") {
				t.Fatalf("line %d: unterminated label set: %q", ln+1, line)
			}
			metric = series[:i]
		}
		base := metric
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if b, ok := strings.CutSuffix(metric, suf); ok && types[b] == "histogram" {
				base = b
				break
			}
		}
		if _, ok := types[base]; !ok {
			t.Fatalf("line %d: sample %q has no preceding TYPE", ln+1, series)
		}
		samples = append(samples, expoSample{name: series, metric: base, value: v})
	}
	return samples, types
}

func scrapeMetrics(t *testing.T, url string) ([]expoSample, map[string]string) {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return parseExposition(t, string(body))
}

// TestMetricsExpositionContract pins the /metrics surface: every line
// parses, expected families exist with the right types, counters never
// go backwards across scrapes, and histogram buckets are cumulative.
func TestMetricsExpositionContract(t *testing.T) {
	d, srv := startTestServer(t)

	submit := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			spec := fmt.Sprintf(`{"work":%d,"spin":3}`, 100+i)
			if _, err := d.Submit(json.RawMessage(spec)); err != nil {
				t.Fatal(err)
			}
		}
	}
	submit(3)
	waitIdle(t, d)

	// Vec families render only once populated; one completed request
	// ensures the HTTP families exist before the first scrape.
	if resp, err := http.Get(srv.URL + "/healthz"); err != nil {
		t.Fatal(err)
	} else {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	first, types := scrapeMetrics(t, srv.URL)
	for metric, wantType := range map[string]string{
		"asapd_journal_appends_total":     "counter",
		"asapd_journal_syncs_total":       "counter",
		"asapd_journal_size_bytes":        "gauge",
		"asapd_queue_transitions_total":   "counter",
		"asapd_queue_depth":               "gauge",
		"asapd_store_puts_total":          "counter",
		"asapd_store_put_bytes_total":     "counter",
		"asapd_exec_busy_workers":         "gauge",
		"asapd_exec_job_seconds":          "histogram",
		"asapd_http_requests_total":       "counter",
		"asapd_http_request_seconds":      "histogram",
		"asapd_uptime_seconds":            "gauge",
		"asapd_draining":                  "gauge",
		"asapd_journal_replay_records":    "gauge",
		"asapd_journal_replay_torn_bytes": "gauge",
		"asapd_journal_segments":          "gauge",
		"asapd_journal_compactions_total": "counter",
		"asapd_store_bytes":               "gauge",
		"asapd_degraded":                  "gauge",
	} {
		if got := types[metric]; got != wantType {
			t.Errorf("metric %s: type %q, want %q", metric, got, wantType)
		}
	}

	byName := func(samples []expoSample) map[string]float64 {
		m := make(map[string]float64, len(samples))
		for _, s := range samples {
			m[s.name] = s.value
		}
		return m
	}
	v1 := byName(first)
	if v1["asapd_journal_appends_total"] <= 0 {
		t.Error("journal appends not counted")
	}
	if v1["asapd_store_puts_total"] < 3 {
		t.Errorf("store puts %v after 3 jobs", v1["asapd_store_puts_total"])
	}
	if v1[`asapd_queue_transitions_total{type="acked"}`] != 3 {
		t.Errorf("acked transitions %v, want 3", v1[`asapd_queue_transitions_total{type="acked"}`])
	}
	if v1[`asapd_exec_job_seconds_count`] != 3 {
		t.Errorf("job histogram count %v, want 3", v1["asapd_exec_job_seconds_count"])
	}
	if v1[`asapd_store_bytes{store="artifacts"}`] <= 0 {
		t.Errorf("artifact store bytes %v after 3 jobs, want > 0",
			v1[`asapd_store_bytes{store="artifacts"}`])
	}
	if v1["asapd_journal_segments"] < 1 {
		t.Errorf("journal segments %v, want >= 1", v1["asapd_journal_segments"])
	}
	if v1["asapd_degraded"] != 0 {
		t.Errorf("degraded level %v on a healthy daemon", v1["asapd_degraded"])
	}

	// Histogram buckets must be cumulative and end at the total count.
	var prev float64 = -1
	var buckets int
	for _, s := range first {
		if !strings.HasPrefix(s.name, "asapd_exec_job_seconds_bucket") {
			continue
		}
		buckets++
		if s.value < prev {
			t.Fatalf("bucket %s = %v below previous %v", s.name, s.value, prev)
		}
		prev = s.value
	}
	if buckets == 0 {
		t.Fatal("no asapd_exec_job_seconds buckets rendered")
	}
	if prev != v1["asapd_exec_job_seconds_count"] {
		t.Errorf("+Inf bucket %v != histogram count %v", prev, v1["asapd_exec_job_seconds_count"])
	}

	// More work, second scrape: counters are monotone.
	submit(2)
	waitIdle(t, d)
	second, _ := scrapeMetrics(t, srv.URL)
	v2 := byName(second)
	for _, s := range first {
		if types[s.metric] != "counter" && !strings.HasSuffix(s.name, "_count") {
			continue
		}
		if after, ok := v2[s.name]; ok && after < s.value {
			t.Errorf("counter %s went backwards: %v -> %v", s.name, s.value, after)
		}
	}
	for _, name := range []string{
		"asapd_journal_appends_total",
		"asapd_store_puts_total",
		`asapd_http_requests_total{route="/metrics",code="200"}`,
	} {
		if v2[name] <= v1[name] {
			t.Errorf("%s did not advance: %v -> %v", name, v1[name], v2[name])
		}
	}
}

// readSSE reads one "event:"/"data:" frame pair from an SSE stream.
func readSSE(t *testing.T, r *bufio.Reader) ProgressEvent {
	t.Helper()
	var data string
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("SSE stream ended early: %v (data %q)", err, data)
		}
		line = strings.TrimRight(line, "\n")
		if rest, ok := strings.CutPrefix(line, "data: "); ok {
			data = rest
			continue
		}
		if line == "" && data != "" {
			var ev ProgressEvent
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				t.Fatalf("SSE data %q: %v", data, err)
			}
			return ev
		}
	}
}

// TestSSEProgressOrderedTerminal live-tails a job over /events and
// demands ordered progress frames ending in exactly one terminal "done"
// event carrying the result hash.
func TestSSEProgressOrderedTerminal(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	cfg := testDaemonConfig(t.TempDir(), func(ctx context.Context, spec json.RawMessage) ([]byte, error) {
		close(started)
		<-release
		PublishProgress(ctx, report.Snapshot{Done: 1, Total: 2, Current: "a", Rate: 4})
		PublishProgress(ctx, report.Snapshot{Done: 2, Total: 2, Current: "b", Rate: 4})
		return []byte("sse result"), nil
	})
	d, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	srv := httptest.NewServer(d.Handler())
	t.Cleanup(func() {
		srv.Close()
		d.Kill()
	})

	id, err := d.Submit(json.RawMessage(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("job never started")
	}

	resp, err := http.Get(fmt.Sprintf("%s/api/v1/jobs/%d/events", srv.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content type %q", ct)
	}
	br := bufio.NewReader(resp.Body)

	// First frame arrives from the pre-subscribe state (running, or the
	// state-derived snapshot); only then let the executor publish.
	ev := readSSE(t, br)
	if ev.Terminal {
		t.Fatalf("first frame already terminal: %+v", ev)
	}
	close(release)

	var frames []ProgressEvent
	frames = append(frames, ev)
	for !frames[len(frames)-1].Terminal {
		if len(frames) > 16 {
			t.Fatalf("no terminal frame after %d events", len(frames))
		}
		frames = append(frames, readSSE(t, br))
	}
	for i := 1; i < len(frames); i++ {
		if frames[i].Seq <= frames[i-1].Seq && frames[i-1].Seq != 0 {
			t.Fatalf("frames out of order: %+v then %+v", frames[i-1], frames[i])
		}
		if frames[i].Done < frames[i-1].Done {
			t.Fatalf("done went backwards: %+v then %+v", frames[i-1], frames[i])
		}
	}
	last := frames[len(frames)-1]
	if last.State != string(StateDone) || last.Hash == "" {
		t.Fatalf("terminal frame: %+v", last)
	}
	var sawProgress bool
	for _, f := range frames {
		if f.State == "running" && f.Done == 2 && f.Total == 2 {
			sawProgress = true
		}
	}
	if !sawProgress {
		t.Fatalf("never saw the done=2/2 running frame: %+v", frames)
	}
	// The stream closed after the terminal event.
	if _, err := br.ReadByte(); err != io.EOF {
		t.Fatalf("stream still open after terminal event (err %v)", err)
	}
}

// TestManifestRoundTripAndRedeliveryIdempotence forces a redelivery
// (delivery 1 stalls after producing its artifacts, the lease expires,
// delivery 2 completes) and demands both deliveries computed identical
// artifact hashes — then round-trips the stored manifest, checks every
// artifact, and verifies content types survive a restart via the
// manifest-driven cache rebuild.
func TestManifestRoundTripAndRedeliveryIdempotence(t *testing.T) {
	dir := t.TempDir()
	cfg := testDaemonConfig(dir, nil)
	cfg.Policy.LeaseTimeout = 50 * time.Millisecond
	cfg.Policy.MaxDeliveries = 2
	cfg.Workers = 1
	cfg.ResultContentType = "text/plain; charset=utf-8"

	arts := []RawArtifact{
		{Name: "profile.json", Kind: KindProfile, ContentType: "application/json", Data: []byte(`{"cycles":12}`)},
		{Name: "series.csv", Kind: KindSeries, ContentType: "text/csv; charset=utf-8", Data: []byte("t,v\n0,1\n")},
	}
	var calls atomic.Int64
	var mu sync.Mutex
	var perDelivery [][]string
	cfg.Exec = func(ctx context.Context, spec json.RawMessage) ([]byte, error) {
		n := calls.Add(1)
		var hashes []string
		for _, a := range arts {
			AddArtifact(ctx, a)
			hashes = append(hashes, HashBytes(a.Data))
		}
		mu.Lock()
		perDelivery = append(perDelivery, hashes)
		mu.Unlock()
		if n == 1 {
			<-ctx.Done() // the ack never lands; the lease expires and the job redelivers
			return nil, ctx.Err()
		}
		return []byte("manifest result"), nil
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
		t.Fatalf("redelivered job: %+v", info)
	}
	if d.Q.Counters()[CtrExpired] == 0 {
		t.Fatal("no lease expiry recorded")
	}
	if info.Manifest == "" {
		t.Fatal("done job has no manifest")
	}

	mu.Lock()
	if len(perDelivery) != 2 {
		t.Fatalf("expected 2 deliveries, saw %d", len(perDelivery))
	}
	for i := range perDelivery[0] {
		if perDelivery[0][i] != perDelivery[1][i] {
			t.Fatalf("delivery hashes diverged: %v vs %v", perDelivery[0], perDelivery[1])
		}
	}
	wantHashes := perDelivery[0]
	mu.Unlock()

	// Round-trip the manifest object.
	raw, err := d.St.Get(info.Manifest)
	if err != nil {
		t.Fatalf("manifest fetch: %v", err)
	}
	m, err := DecodeManifest(raw)
	if err != nil {
		t.Fatal(err)
	}
	if m.Result != info.Hash {
		t.Fatalf("manifest result %s != job hash %s", m.Result, info.Hash)
	}
	if len(m.Artifacts) != 3 {
		t.Fatalf("manifest artifacts: %+v", m.Artifacts)
	}
	if m.Artifacts[0].Kind != KindResult || m.Artifacts[0].Hash != info.Hash ||
		m.Artifacts[0].ContentType != "text/plain; charset=utf-8" {
		t.Fatalf("result artifact: %+v", m.Artifacts[0])
	}
	for i, a := range m.Artifacts[1:] {
		if a.Hash != wantHashes[i] || a.Name != arts[i].Name || a.Kind != arts[i].Kind ||
			a.ContentType != arts[i].ContentType || a.Bytes != int64(len(arts[i].Data)) {
			t.Fatalf("artifact %d: %+v", i, a)
		}
		got, err := d.St.Get(a.Hash)
		if err != nil || string(got) != string(arts[i].Data) {
			t.Fatalf("artifact %d round-trip: %v", i, err)
		}
	}
	// Re-encoding what we decoded lands on the same content address:
	// the manifest hash is deterministic.
	re, err := EncodeManifest(m)
	if err != nil {
		t.Fatal(err)
	}
	if HashBytes(re) != info.Manifest {
		t.Fatal("manifest re-encode changed its content address")
	}

	// Restart: the content-type cache is empty until contentTypeFor
	// rebuilds it from the stored manifests; the HTTP layer must serve
	// every artifact with its manifest-declared type.
	d.Q.j.Close()
	d.Kill()
	d2, err := Open(testDaemonConfig(dir, cfg.Exec))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	srv := httptest.NewServer(d2.Handler())
	t.Cleanup(func() {
		srv.Close()
		d2.Kill()
	})
	for path, wantCT := range map[string]string{
		fmt.Sprintf("/api/v1/jobs/%d/manifest", id): "application/json",
		fmt.Sprintf("/api/v1/jobs/%d/result", id):   "text/plain; charset=utf-8",
		"/api/v1/artifacts/" + m.Artifacts[1].Hash:  "application/json",
		"/api/v1/artifacts/" + m.Artifacts[2].Hash:  "text/csv; charset=utf-8",
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != wantCT {
			t.Errorf("GET %s: content type %q, want %q", path, ct, wantCT)
		}
	}

	// The poll endpoint answers for a pre-restart job with its terminal
	// verdict even though this process never ran it.
	resp, err := http.Get(fmt.Sprintf("%s/api/v1/jobs/%d/progress", srv.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	var ev ProgressEvent
	if err := json.NewDecoder(resp.Body).Decode(&ev); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !ev.Terminal || ev.State != string(StateDone) || ev.Hash != info.Hash || ev.Manifest != info.Manifest {
		t.Fatalf("post-restart progress: %+v", ev)
	}
}

// TestReadyzLifecycle splits liveness from readiness: /healthz is always
// 200 while the process serves, /readyz is 503 before Start and again
// once a drain begins.
func TestReadyzLifecycle(t *testing.T) {
	d, err := Open(testDaemonConfig(t.TempDir(), testExec))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.Handler())
	t.Cleanup(func() {
		srv.Close()
		d.Kill()
	})

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(body)
	}

	if code, body := get("/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "starting") {
		t.Fatalf("pre-start readyz: %d %q", code, body)
	}
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("pre-start healthz: %d", code)
	}

	d.Start()
	if code, _ := get("/readyz"); code != http.StatusOK {
		t.Fatalf("started readyz: %d", code)
	}

	if err := d.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if code, body := get("/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Fatalf("draining readyz: %d %q", code, body)
	}
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("draining healthz: %d", code)
	}
}

// TestSeriesFormatNegotiation pins /api/v1/series content negotiation:
// CSV by default, JSON on ?format=json or an Accept header.
func TestSeriesFormatNegotiation(t *testing.T) {
	cfg := testDaemonConfig(t.TempDir(), testExec)
	cfg.SeriesEvery = 5 * time.Millisecond
	d, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	srv := httptest.NewServer(d.Handler())
	t.Cleanup(func() {
		srv.Close()
		d.Kill()
	})

	get := func(path, accept string) (string, string) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodGet, srv.URL+path, nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d", path, resp.StatusCode)
		}
		return resp.Header.Get("Content-Type"), string(body)
	}

	if ct, _ := get("/api/v1/series", ""); ct != "text/csv; charset=utf-8" {
		t.Errorf("default series content type %q", ct)
	}
	ct, body := get("/api/v1/series?format=json", "")
	if ct != "application/json" || !json.Valid([]byte(body)) {
		t.Errorf("format=json: content type %q, valid JSON %v", ct, json.Valid([]byte(body)))
	}
	if ct, _ := get("/api/v1/series", "application/json"); ct != "application/json" {
		t.Errorf("Accept json: content type %q", ct)
	}
	if ct, _ := get("/api/v1/series?format=csv", "application/json"); ct != "text/csv; charset=utf-8" {
		t.Errorf("format=csv overrides Accept: content type %q", ct)
	}
}
