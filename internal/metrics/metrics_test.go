package metrics

import (
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func render(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	return b.String()
}

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "a test counter")
	c.Inc()
	c.Add(2.5)
	if got := c.Value(); got != 3.5 {
		t.Fatalf("value = %v, want 3.5", got)
	}
	c.Add(-1) // ignored: counters are monotonic
	if got := c.Value(); got != 3.5 {
		t.Fatalf("value after negative add = %v, want 3.5", got)
	}
	out := render(t, r)
	want := "# HELP test_total a test counter\n# TYPE test_total counter\ntest_total 3.5\n"
	if out != want {
		t.Fatalf("render = %q, want %q", out, want)
	}
}

func TestCounterReregisterReturnsSame(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "h")
	b := r.Counter("x_total", "h")
	if a != b {
		t.Fatal("re-registration should return the same counter")
	}
}

func TestKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "h")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind conflict")
		}
	}()
	r.Gauge("x_total", "h")
}

func TestInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on invalid name")
		}
	}()
	r.Counter("bad-name", "h")
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("depth", "queue depth")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %v, want 5", got)
	}
	if !strings.Contains(render(t, r), "depth 5\n") {
		t.Fatalf("render missing gauge sample: %q", render(t, r))
	}
}

func TestGaugeFunc(t *testing.T) {
	r := NewRegistry()
	v := 3.0
	r.GaugeFunc("live", "scrape-time value", func() float64 { return v })
	if !strings.Contains(render(t, r), "live 3\n") {
		t.Fatal("gauge func not rendered")
	}
	v = 9
	if !strings.Contains(render(t, r), "live 9\n") {
		t.Fatal("gauge func should be read at scrape time")
	}
}

func TestCounterVecLabels(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("req_total", "requests", "route", "code")
	v.With("/api/v1/jobs", "200").Add(3)
	v.With("/metrics", "200").Inc()
	v.With("/api/v1/jobs", "404").Inc()
	out := render(t, r)
	for _, want := range []string{
		`req_total{route="/api/v1/jobs",code="200"} 3`,
		`req_total{route="/api/v1/jobs",code="404"} 1`,
		`req_total{route="/metrics",code="200"} 1`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	// Same label values → same child.
	if v.With("/metrics", "200").Value() != 1 {
		t.Fatal("label lookup not stable")
	}
}

func TestLabelArityPanics(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("x_total", "h", "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on wrong label arity")
		}
	}()
	v.With("only-one")
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("esc_total", "h", "l").With(`quo"te\slash` + "\nnl").Inc()
	out := render(t, r)
	want := `esc_total{l="quo\"te\\slash\nnl"} 1`
	if !strings.Contains(out, want+"\n") {
		t.Fatalf("escaping wrong:\n%s", out)
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1.5, 3, 100} {
		h.Observe(v)
	}
	out := render(t, r)
	for _, want := range []string{
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{le="1"} 1`,
		`lat_seconds_bucket{le="2"} 2`,
		`lat_seconds_bucket{le="4"} 3`,
		`lat_seconds_bucket{le="+Inf"} 4`,
		"lat_seconds_sum 105",
		"lat_seconds_count 4",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramBoundaryValueGoesInLowerBucket(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("b_seconds", "h", []float64{1, 2})
	h.Observe(1) // le="1" is inclusive
	out := render(t, r)
	if !strings.Contains(out, `b_seconds_bucket{le="1"} 1`+"\n") {
		t.Fatalf("v == bound must land in that bucket:\n%s", out)
	}
}

func TestHistogramVec(t *testing.T) {
	r := NewRegistry()
	v := r.HistogramVec("hv_seconds", "h", []float64{1}, "route")
	v.With("/a").Observe(0.5)
	v.With("/b").Observe(2)
	out := render(t, r)
	for _, want := range []string{
		`hv_seconds_bucket{route="/a",le="1"} 1`,
		`hv_seconds_bucket{route="/b",le="1"} 0`,
		`hv_seconds_bucket{route="/b",le="+Inf"} 1`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestPow2Buckets(t *testing.T) {
	got := Pow2Buckets(0.25, 5)
	want := []float64{0.25, 0.5, 1, 2, 4}
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestFamiliesSortedByName(t *testing.T) {
	r := NewRegistry()
	r.Counter("zzz_total", "z")
	r.Counter("aaa_total", "a")
	out := render(t, r)
	if strings.Index(out, "aaa_total") > strings.Index(out, "zzz_total") {
		t.Fatalf("families not sorted:\n%s", out)
	}
}

func TestNilInstrumentsAreSafe(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Inc()
	c.Add(1)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 {
		t.Fatal("nil instruments must read as zero")
	}
}

func TestConcurrentIncrements(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("conc_total", "h")
	v := r.CounterVec("concv_total", "h", "i")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				v.With(strconv.Itoa(i % 4)).Inc()
			}
		}(i)
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %v, want 8000", c.Value())
	}
	var total float64
	for i := 0; i < 4; i++ {
		total += v.With(strconv.Itoa(i)).Value()
	}
	if total != 8000 {
		t.Fatalf("vec total = %v, want 8000", total)
	}
}

func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("h_total", "h").Inc()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	buf := make([]byte, 1<<16)
	n, _ := resp.Body.Read(buf)
	if !strings.Contains(string(buf[:n]), "h_total 1\n") {
		t.Fatalf("handler body missing sample: %q", buf[:n])
	}
}
