package experiment

import (
	"encoding/json"

	"asap/internal/resultcache"
	"asap/internal/workload"
)

// cellCache, when non-nil, memoizes experiment cells: runAll consults it
// before dispatching a run and stores the result on completion. Like the
// pool and context it is package state, installed under sweep.Execute's
// lock (or by a CLI before any figure runs).
var cellCache *resultcache.Store

// cacheCodeVersion is folded into every cell key so results computed by
// different code never collide. Callers resolve it (and decide whether
// caching is safe at all) via resultcache.CodeVersion.
var cacheCodeVersion string

// SetCache installs the cell cache used by all figure runners; nil
// disables caching (the default, and the -no-cache path). codeVersion
// must identify the running code — pass resultcache.CodeVersion()'s
// value. Not safe to call while figures run.
func SetCache(c *resultcache.Store, codeVersion string) {
	if c != nil && codeVersion == "" {
		// No way to invalidate across code changes: refuse to cache.
		c = nil
	}
	cellCache = c
	cacheCodeVersion = codeVersion
}

// Cache returns the currently installed cell cache (nil when disabled).
func Cache() *resultcache.Store { return cellCache }

// standardKey derives the cache key for a standard Run cell, or nil when
// the cell is uncacheable: an attached trace or observability session
// makes the run's side effects part of its value, so it must execute.
func standardKey(v Variant, bench string, scale Scale, valueBytes int) *resultcache.Key {
	if v.Trace != nil || v.Obs != nil {
		return nil
	}
	k := resultcache.NewKey().
		Field("kind", "cell.v1").
		Field("scheme", v.Scheme).
		Fieldf("pmmult", "%d", v.PMMult).
		Fieldf("lhwpq", "%d", v.LHWPQ).
		Field("bench", bench).
		Fieldf("threads", "%d", scale.Threads).
		Fieldf("ops", "%d", scale.OpsPerThread).
		Fieldf("items", "%d", scale.InitialItems).
		Fieldf("valuebytes", "%d", valueBytes).
		Fieldf("seed", "%d", v.seed())
	if v.ASAPOpts != nil {
		blob, err := json.Marshal(v.ASAPOpts)
		if err != nil {
			return nil
		}
		k.Field("asapopts", string(blob))
	}
	return k
}

// cacheProbe resolves a spec's cache key: standard cells derive one from
// the variant, custom cells supply one explicitly (nil = uncacheable).
func (s *runSpec) cacheProbe() (string, bool) {
	if cellCache == nil {
		return "", false
	}
	var k *resultcache.Key
	if s.custom == nil {
		k = standardKey(s.v, s.bench, s.scale, s.valueBytes)
	} else {
		k = s.cacheKey
	}
	if k == nil {
		return "", false
	}
	return k.Field("codeversion", cacheCodeVersion).Sum(), true
}

// encodeResult renders a cell result to cacheable bytes. Stalled or
// inconsistent runs are never cached — Run panics on them anyway, and a
// cache must only ever replay successes.
func encodeResult(r workload.Result) ([]byte, bool) {
	if r.Stall != nil || r.CheckErr != "" {
		return nil, false
	}
	blob, err := json.Marshal(r)
	return blob, err == nil
}

// decodeResult parses cached bytes back into a cell result. The JSON
// codec is exact for every field figures reduce (uint64/int64 counters
// and sorted map keys), which is what makes warm output byte-identical.
func decodeResult(blob []byte) (workload.Result, bool) {
	var r workload.Result
	if err := json.Unmarshal(blob, &r); err != nil {
		return workload.Result{}, false
	}
	return r, true
}

// encodeMulti / decodeMulti are the co-running sweep's codec.
func encodeMulti(r workload.MultiResult) ([]byte, bool) {
	if r.Stall != nil || len(r.CheckErrs) > 0 {
		return nil, false
	}
	blob, err := json.Marshal(r)
	return blob, err == nil
}

func decodeMulti(blob []byte) (workload.MultiResult, bool) {
	var r workload.MultiResult
	if err := json.Unmarshal(blob, &r); err != nil {
		return workload.MultiResult{}, false
	}
	return r, true
}

// memoize attaches cache probe/store hooks to a standard cell job.
func memoizeResult(key string, jobCached *func() (workload.Result, bool), jobStore *func(workload.Result)) {
	c := cellCache
	*jobCached = func() (workload.Result, bool) {
		blob, ok := c.Get(key)
		if !ok {
			return workload.Result{}, false
		}
		return decodeResult(blob)
	}
	*jobStore = func(r workload.Result) {
		if blob, ok := encodeResult(r); ok {
			c.Put(key, blob)
		}
	}
}
