package experiment

import (
	"encoding/json"

	"asap/internal/resultcache"
)

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

// customKey starts a custom cell's cache key: its kind and the sweep's
// scale. The caller adds every other input the cell's recipe bakes in.
func (sw Sweep) customKey(kind string) *resultcache.Key {
	return resultcache.NewKey().
		Field("kind", kind).
		Fieldf("threads", "%d", sw.Scale.Threads).
		Fieldf("ops", "%d", sw.Scale.OpsPerThread).
		Fieldf("items", "%d", sw.Scale.InitialItems)
}
