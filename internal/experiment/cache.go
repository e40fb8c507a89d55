package experiment

import (
	"encoding/json"

	"asap/internal/resultcache"
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

// key returns the cell's cache key before the code version is folded in,
// or nil when the cell is uncacheable: an attached trace or observability
// session makes the run's side effects part of its value, so it must
// execute, and a custom cell is cached only under its explicit cacheKey.
func (s runSpec) key() *resultcache.Key {
	switch {
	case s.v.Trace != nil || s.v.Obs != nil:
		return nil
	case s.custom():
		return s.cacheKey
	}
	k := resultcache.NewKey().
		Field("kind", "cell.v1").
		Field("scheme", s.v.Scheme).
		Fieldf("pmmult", "%d", s.v.PMMult).
		Fieldf("lhwpq", "%d", s.v.LHWPQ).
		Field("bench", s.bench).
		Fieldf("threads", "%d", s.scale.Threads).
		Fieldf("ops", "%d", s.scale.OpsPerThread).
		Fieldf("items", "%d", s.scale.InitialItems).
		Fieldf("valuebytes", "%d", s.valueBytes).
		Fieldf("seed", "%d", s.v.seed())
	if s.v.ASAPOpts != nil {
		blob, err := json.Marshal(s.v.ASAPOpts)
		if err != nil {
			return nil
		}
		k.Field("asapopts", string(blob))
	}
	return k
}
