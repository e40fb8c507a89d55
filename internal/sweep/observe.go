package sweep

import (
	"bytes"
	"fmt"

	"asap/internal/experiment"
	"asap/internal/obs"
	"asap/internal/resultcache"
	"asap/internal/trace"
)

// ObsArtifact is one observability output from an instrumented
// representative run: the PR-3 observer layer's profile, timeline and
// occupancy series, rendered to bytes for a job manifest.
type ObsArtifact struct {
	Name        string
	Kind        string // "profile" | "timeline" | "series"
	ContentType string
	Data        []byte
}

// The observe run's fixed recipe. Everything here shapes the artifact
// bytes, so observeKeys folds every one of them into the cache key.
const (
	// obsSeriesInterval is the occupancy sampling interval (cycles) for
	// manifest series artifacts — asapsim's default.
	obsSeriesInterval = 1000
	obsTraceCap       = 1 << 16
	obsScheme         = "ASAP"
	obsValueBytes     = 64
)

// obsArtifacts lists the artifacts an observe run renders, in manifest
// order, without their data.
var obsArtifacts = [...]ObsArtifact{
	{Name: "profile.json", Kind: "profile", ContentType: "application/json"},
	{Name: "trace.json", Kind: "timeline", ContentType: "application/json"},
	{Name: "series.csv", Kind: "series", ContentType: "text/csv; charset=utf-8"},
}

// withData pairs obsArtifacts with rendered bytes, one slice per entry.
func withData(data [len(obsArtifacts)][]byte) []ObsArtifact {
	out := make([]ObsArtifact, len(obsArtifacts))
	for i, a := range obsArtifacts {
		a.Data = data[i]
		out[i] = a
	}
	return out
}

// ObserveArtifacts runs one instrumented representative experiment for
// the spec — its profile benchmark (default Q) under ASAP at the spec's
// scale, with the full PR-3 session attached (cycle-attribution
// profiler with spans, occupancy recorder, protocol trace buffer) —
// and renders profile JSON, a Perfetto timeline and the series CSV.
//
// The instrumented run is separate from the sweep itself, so Execute's
// output neutrality is preserved by construction. The simulation is
// deterministic for a given spec, so artifact bytes — and therefore
// their content addresses — are identical across job redeliveries,
// which the manifest-idempotence test enforces.
func ObserveArtifacts(spec Spec) ([]ObsArtifact, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	prof := obs.NewProfiler()
	prof.EnableSpans(0)
	rec := obs.NewRecorder(obsSeriesInterval, 0)
	buf := trace.NewBuffer(obsTraceCap)
	experiment.Run(experiment.Variant{
		Scheme: obsScheme,
		Trace:  buf,
		Obs:    &obs.Session{Prof: prof, Rec: rec},
	}, spec.profileBench(), spec.scale(), obsValueBytes)
	if err := prof.Check(); err != nil {
		return nil, fmt.Errorf("sweep: observe: profile self-check: %w", err)
	}

	var profJSON, timeline, seriesCSV bytes.Buffer
	if err := prof.WriteJSON(&profJSON); err != nil {
		return nil, fmt.Errorf("sweep: observe: profile: %w", err)
	}
	if err := obs.WriteTimeline(&timeline, buf.Events(), prof, rec); err != nil {
		return nil, fmt.Errorf("sweep: observe: timeline: %w", err)
	}
	if err := rec.WriteCSV(&seriesCSV); err != nil {
		return nil, fmt.Errorf("sweep: observe: series: %w", err)
	}
	return withData([len(obsArtifacts)][]byte{profJSON.Bytes(), timeline.Bytes(), seriesCSV.Bytes()}), nil
}

// observeKeys derives the cache key of each observe artifact, in
// obsArtifacts order: the observe.v1 kind, every input of the observe
// run's recipe, the artifact's name, and the code version.
func observeKeys(spec Spec, codeVersion string) [len(obsArtifacts)]string {
	scale := spec.scale()
	var keys [len(obsArtifacts)]string
	for i, a := range obsArtifacts {
		keys[i] = resultcache.NewKey().
			Field("kind", "observe.v1").
			Field("artifact", a.Name).
			Field("bench", spec.profileBench()).
			Fieldf("threads", "%d", scale.Threads).
			Fieldf("ops", "%d", scale.OpsPerThread).
			Fieldf("items", "%d", scale.InitialItems).
			Fieldf("valuebytes", "%d", obsValueBytes).
			Field("scheme", obsScheme).
			Fieldf("seriesinterval", "%d", obsSeriesInterval).
			Fieldf("tracecap", "%d", obsTraceCap).
			Field("codeversion", codeVersion).
			Sum()
	}
	return keys
}

// ObserveArtifactsCached is ObserveArtifacts memoized in cache: the
// three artifacts depend only on the profile benchmark, the scale and
// the code version, so a job whose observe run another job already made
// reads the rendered bytes back instead of simulating. Each artifact is
// stored raw under its own key. The lookup is all-or-nothing: any miss
// or corrupt entry recomputes all three and re-stores them; a failed
// store is dropped, since the cache is an accelerator, not a dependency.
// A nil cache or an empty codeVersion runs ObserveArtifacts uncached.
// cached reports whether the artifacts came from the cache.
func ObserveArtifactsCached(spec Spec, cache *resultcache.Store, codeVersion string) (arts []ObsArtifact, cached bool, err error) {
	if cache == nil || codeVersion == "" {
		arts, err = ObserveArtifacts(spec)
		return arts, false, err
	}
	if err := spec.Validate(); err != nil {
		return nil, false, err
	}
	keys := observeKeys(spec, codeVersion)
	var data [len(obsArtifacts)][]byte
	hit := true
	for i, k := range keys {
		blob, ok := cache.Get(k)
		hit = hit && ok
		data[i] = blob
	}
	if hit {
		return withData(data), true, nil
	}
	arts, err = ObserveArtifacts(spec)
	if err != nil {
		return nil, false, err
	}
	for i, a := range arts {
		_ = cache.Put(keys[i], a.Data)
	}
	return arts, false, nil
}
