package sweep

import (
	"bytes"
	"context"
	"testing"

	"asap/internal/resultcache"
)

// TestWarmSweepIsByteIdentical is the cache's contract: a sweep run twice
// against the same store emits byte-identical output, the second run is
// served from cache (every cell a hit), and a run with no cache matches
// both. fig1 covers the standard variant matrix; fences and corun cover
// custom (explicit-key) specs, corun with co-running benchmarks.
func TestWarmSweepIsByteIdentical(t *testing.T) {
	t.Setenv(resultcache.CodeVersionEnv, "test-code-version")
	version, ok := resultcache.CodeVersion()
	if !ok || version != "test-code-version" {
		t.Fatalf("CodeVersion() = %q, %v", version, ok)
	}
	store, err := resultcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	spec := Spec{Experiments: []string{"fig1", "fences", "corun"}, Parallel: 2}
	runIt := func(cache *resultcache.Store) string {
		var buf bytes.Buffer
		opt := Options{}
		if cache != nil {
			opt.Cache = cache
			opt.CodeVersion = version
		}
		if _, err := Execute(context.Background(), spec, &buf, opt); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}

	uncached := runIt(nil)
	cold := runIt(store)
	hits, misses, puts := store.Stats()
	if hits != 0 || misses == 0 || puts != misses {
		t.Fatalf("cold run: hits=%d misses=%d puts=%d (want 0 hits, puts == misses)", hits, misses, puts)
	}
	warm := runIt(store)
	hits2, misses2, _ := store.Stats()
	if hits2 == 0 || misses2 != misses {
		t.Fatalf("warm run: hits=%d (want >0), misses %d -> %d (want no new misses)", hits2, misses, misses2)
	}
	if hits2 != misses {
		t.Errorf("warm run hit %d cells but cold run computed %d: cache keys unstable across runs", hits2, misses)
	}

	if cold != uncached {
		t.Errorf("cold cached output differs from uncached output")
	}
	if warm != cold {
		t.Errorf("warm output differs from cold output")
	}
}

// TestSweepWithEmptyCodeVersionDisablesCache covers the Options contract:
// a non-nil Cache with an empty CodeVersion must not be consulted.
func TestSweepWithEmptyCodeVersionDisablesCache(t *testing.T) {
	store, err := resultcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	spec := Spec{Experiments: []string{"fig1"}, Parallel: 2}
	if _, err := Execute(context.Background(), spec, &buf, Options{Cache: store}); err != nil {
		t.Fatal(err)
	}
	if hits, misses, puts := store.Stats(); hits != 0 || misses != 0 || puts != 0 {
		t.Fatalf("store touched without a code version: hits=%d misses=%d puts=%d", hits, misses, puts)
	}
}
