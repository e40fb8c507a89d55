// Package metrics is a small, dependency-free metrics registry for the
// experiment service: counters, gauges and fixed-bucket histograms, with
// optional labels, rendered in the Prometheus text exposition format.
// The simulator keeps its own observability layer (internal/obs samples
// *simulated* time); this package measures the *service* — wall-clock
// rates, depths and latencies of the daemon wrapped around the
// simulator — and exists so asapd can expose a /metrics endpoint
// without importing a client library the container does not have.
//
// Design constraints, in order:
//
//  1. Hot-path increments must be cheap and lock-free (one atomic add),
//     because the journal and queue bump counters inside their commit
//     paths.
//  2. Exposition must be deterministic: families sorted by name,
//     children sorted by label values, so scrape diffs and tests are
//     stable.
//  3. Instruments are create-once, use-forever: registering an existing
//     name returns the existing instrument, so wiring code can be
//     idempotent across daemon restarts in one process (tests).
package metrics

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing value.
type Counter struct {
	bits atomic.Uint64 // float64 bits
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by v (v must be >= 0; negative deltas are
// ignored rather than corrupting monotonicity).
func (c *Counter) Add(v float64) {
	if c == nil || v < 0 {
		return
	}
	for {
		old := c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current count.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

// Gauge is a value that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add shifts the gauge by delta.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed cumulative buckets. Buckets
// are upper bounds in ascending order; every histogram gets an implicit
// +Inf bucket. Observation is one mutex-guarded pass (histograms sit on
// job-completion paths, not per-cycle paths, so a mutex is fine).
type Histogram struct {
	mu     sync.Mutex
	bounds []float64
	counts []uint64 // len(bounds)+1; last is +Inf
	sum    float64
	total  uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i]++
	h.sum += v
	h.total++
}

// snapshot returns cumulative bucket counts, sum and total.
func (h *Histogram) snapshot() (bounds []float64, cum []uint64, sum float64, total uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	cum = make([]uint64, len(h.counts))
	var acc uint64
	for i, c := range h.counts {
		acc += c
		cum[i] = acc
	}
	return h.bounds, cum, h.sum, h.total
}

// Pow2Buckets returns n upper bounds starting at base and doubling:
// base, 2*base, 4*base, ... The fixed power-of-two ladder keeps bucket
// boundaries identical across restarts and PRs, so dashboards and CI
// assertions never chase moving bucket edges.
func Pow2Buckets(base float64, n int) []float64 {
	if base <= 0 {
		base = 1
	}
	if n <= 0 {
		n = 1
	}
	out := make([]float64, n)
	v := base
	for i := range out {
		out[i] = v
		v *= 2
	}
	return out
}

// metricKind tags a family for TYPE rendering and re-registration checks.
type metricKind string

const (
	kindCounter   metricKind = "counter"
	kindGauge     metricKind = "gauge"
	kindHistogram metricKind = "histogram"
)

// family is one named metric: help, type, label names, and children
// keyed by label values. Unlabelled instruments are the child with the
// empty key.
type family struct {
	name   string
	help   string
	kind   metricKind
	labels []string

	mu       sync.Mutex
	children map[string]any // label key -> *Counter | *Gauge | func() float64 | *Histogram
	order    []string
	bounds   []float64 // histogram families only
}

// child returns (creating if needed) the instrument for the label key.
func (f *family) child(key string, mk func() any) any {
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.children[key]
	if !ok {
		c = mk()
		f.children[key] = c
		f.order = append(f.order, key)
	}
	return c
}

// Registry holds metric families and renders them. The zero value is
// not usable; create with NewRegistry.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// validName is the conservative Prometheus metric/label name contract.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// register returns the family for name, creating it on first use and
// panicking on a kind or label-arity conflict — conflicting
// registrations are wiring bugs, not runtime conditions.
func (r *Registry) register(name, help string, kind metricKind, labels []string) *family {
	if !validName(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validName(l) {
			panic(fmt.Sprintf("metrics: invalid label name %q on %q", l, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.fams[name]
	if !ok {
		f = &family{
			name: name, help: help, kind: kind,
			labels:   append([]string(nil), labels...),
			children: make(map[string]any),
		}
		r.fams[name] = f
		return f
	}
	if f.kind != kind || len(f.labels) != len(labels) {
		panic(fmt.Sprintf("metrics: %q re-registered as %s/%v (was %s/%v)",
			name, kind, labels, f.kind, f.labels))
	}
	for i := range labels {
		if f.labels[i] != labels[i] {
			panic(fmt.Sprintf("metrics: %q re-registered with labels %v (was %v)",
				name, labels, f.labels))
		}
	}
	return f
}

// Counter returns the unlabelled counter with the given name.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, kindCounter, nil)
	return f.child("", func() any { return &Counter{} }).(*Counter)
}

// Gauge returns the unlabelled settable gauge with the given name.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.register(name, help, kindGauge, nil)
	return f.child("", func() any { return &Gauge{} }).(*Gauge)
}

// GaugeFunc registers a gauge whose value is read from fn at scrape
// time. fn must be safe to call from any goroutine.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.register(name, help, kindGauge, nil)
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.children[""]; !ok {
		f.children[""] = fn
		f.order = append(f.order, "")
	}
}

// Histogram returns the unlabelled histogram with the given cumulative
// upper bounds (ascending; an implicit +Inf bucket is added).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	f := r.register(name, help, kindHistogram, nil)
	f.mu.Lock()
	if f.bounds == nil {
		f.bounds = append([]float64(nil), buckets...)
	}
	bounds := f.bounds
	f.mu.Unlock()
	return f.child("", func() any {
		return &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
	}).(*Histogram)
}

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// CounterVec returns the labelled counter family with the given name.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if len(labels) == 0 {
		panic("metrics: CounterVec needs at least one label")
	}
	return &CounterVec{f: r.register(name, help, kindCounter, labels)}
}

// With returns the counter for the given label values (arity-checked).
func (v *CounterVec) With(values ...string) *Counter {
	key := labelKey(v.f, values)
	return v.f.child(key, func() any { return &Counter{} }).(*Counter)
}

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// GaugeVec returns the labelled gauge family with the given name.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	if len(labels) == 0 {
		panic("metrics: GaugeVec needs at least one label")
	}
	return &GaugeVec{f: r.register(name, help, kindGauge, labels)}
}

// WithFunc registers a scrape-time gauge function for the label values.
func (v *GaugeVec) WithFunc(fn func() float64, values ...string) {
	key := labelKey(v.f, values)
	v.f.mu.Lock()
	defer v.f.mu.Unlock()
	if _, ok := v.f.children[key]; !ok {
		v.f.children[key] = fn
		v.f.order = append(v.f.order, key)
	}
}

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// HistogramVec returns the labelled histogram family; all children
// share the same bucket bounds.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if len(labels) == 0 {
		panic("metrics: HistogramVec needs at least one label")
	}
	f := r.register(name, help, kindHistogram, labels)
	f.mu.Lock()
	if f.bounds == nil {
		f.bounds = append([]float64(nil), buckets...)
	}
	f.mu.Unlock()
	return &HistogramVec{f: f}
}

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	key := labelKey(v.f, values)
	v.f.mu.Lock()
	bounds := v.f.bounds
	v.f.mu.Unlock()
	return v.f.child(key, func() any {
		return &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
	}).(*Histogram)
}

// labelKey encodes label values into the child map key. Values are
// length-prefixed so no two value tuples collide.
func labelKey(f *family, values []string) string {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("metrics: %q wants %d label values, got %d",
			f.name, len(f.labels), len(values)))
	}
	var b strings.Builder
	for _, v := range values {
		fmt.Fprintf(&b, "%d:%s", len(v), v)
	}
	return b.String()
}

// decodeKey reverses labelKey.
func decodeKey(key string) []string {
	var out []string
	for len(key) > 0 {
		i := strings.IndexByte(key, ':')
		var n int
		fmt.Sscanf(key[:i], "%d", &n)
		out = append(out, key[i+1:i+1+n])
		key = key[i+1+n:]
	}
	return out
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

// formatValue renders a sample value; integers print without exponent.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// renderLabels renders {a="x",b="y"} (or "" when empty). extra, when
// non-empty, is appended as a pre-rendered pair (histogram le).
func renderLabels(names, values []string, extra string) string {
	if len(names) == 0 && extra == "" {
		return ""
	}
	parts := make([]string, 0, len(names)+1)
	for i, n := range names {
		parts = append(parts, fmt.Sprintf(`%s="%s"`, n, escapeLabel(values[i])))
	}
	if extra != "" {
		parts = append(parts, extra)
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// WritePrometheus renders every family in the text exposition format,
// families sorted by name and children by label values, so output is
// deterministic for a given registry state.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	for n := range r.fams {
		names = append(names, n)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, n := range names {
		fams = append(fams, r.fams[n])
	}
	r.mu.Unlock()

	for _, f := range fams {
		f.mu.Lock()
		keys := append([]string(nil), f.order...)
		children := make([]any, len(keys))
		for i, k := range keys {
			children[i] = f.children[k]
		}
		f.mu.Unlock()
		if len(keys) == 0 {
			continue
		}
		sort.Sort(&keyedChildren{keys, children})

		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, strings.ReplaceAll(f.help, "\n", " ")); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
			return err
		}
		for i, key := range keys {
			values := decodeKey(key)
			switch c := children[i].(type) {
			case *Counter:
				if _, err := fmt.Fprintf(w, "%s%s %s\n", f.name,
					renderLabels(f.labels, values, ""), formatValue(c.Value())); err != nil {
					return err
				}
			case *Gauge:
				if _, err := fmt.Fprintf(w, "%s%s %s\n", f.name,
					renderLabels(f.labels, values, ""), formatValue(c.Value())); err != nil {
					return err
				}
			case func() float64:
				if _, err := fmt.Fprintf(w, "%s%s %s\n", f.name,
					renderLabels(f.labels, values, ""), formatValue(c())); err != nil {
					return err
				}
			case *Histogram:
				bounds, cum, sum, total := c.snapshot()
				for bi, ub := range bounds {
					le := fmt.Sprintf(`le="%s"`, formatValue(ub))
					if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name,
						renderLabels(f.labels, values, le), cum[bi]); err != nil {
						return err
					}
				}
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name,
					renderLabels(f.labels, values, `le="+Inf"`), total); err != nil {
					return err
				}
				if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name,
					renderLabels(f.labels, values, ""), formatValue(sum)); err != nil {
					return err
				}
				if _, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name,
					renderLabels(f.labels, values, ""), total); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// keyedChildren sorts children by decoded label-value order.
type keyedChildren struct {
	keys     []string
	children []any
}

func (k *keyedChildren) Len() int           { return len(k.keys) }
func (k *keyedChildren) Less(i, j int) bool { return k.keys[i] < k.keys[j] }
func (k *keyedChildren) Swap(i, j int) {
	k.keys[i], k.keys[j] = k.keys[j], k.keys[i]
	k.children[i], k.children[j] = k.children[j], k.children[i]
}

// Handler returns an http.Handler serving the exposition format with
// the conventional content type.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}
