package sweep

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"asap/internal/resultcache"
)

// sameArtifacts fails the test unless a and b list the same artifacts —
// names, kinds, content types and bytes — in the same order.
func sameArtifacts(t *testing.T, what string, a, b []ObsArtifact) {
	t.Helper()
	if len(a) != len(b) || len(a) != len(obsArtifacts) {
		t.Fatalf("%s: %d vs %d artifacts (want %d)", what, len(a), len(b), len(obsArtifacts))
	}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].Kind != b[i].Kind || a[i].ContentType != b[i].ContentType {
			t.Errorf("%s: artifact %d is %s/%s/%s vs %s/%s/%s", what, i,
				a[i].Name, a[i].Kind, a[i].ContentType, b[i].Name, b[i].Kind, b[i].ContentType)
		}
		if !bytes.Equal(a[i].Data, b[i].Data) {
			t.Errorf("%s: %s bytes differ (%d vs %d bytes)", what, a[i].Name, len(a[i].Data), len(b[i].Data))
		}
		if len(a[i].Data) == 0 {
			t.Errorf("%s: %s is empty", what, a[i].Name)
		}
	}
}

func openStore(t *testing.T) *resultcache.Store {
	t.Helper()
	store, err := resultcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return store
}

// TestObserveCachedMatchesUncached is the memo's contract: a cold call
// computes and stores the three artifacts, a warm call reads them back
// without a single miss, and both equal the uncached observe run — for
// the default benchmark and for another one.
func TestObserveCachedMatchesUncached(t *testing.T) {
	for _, bench := range []string{"", "BN"} {
		spec := Spec{Experiments: []string{"config"}, ProfileBench: bench}
		store := openStore(t)

		want, err := ObserveArtifacts(spec)
		if err != nil {
			t.Fatal(err)
		}
		cold, cached, err := ObserveArtifactsCached(spec, store, "v1")
		if err != nil || cached {
			t.Fatalf("bench %q cold: cached=%v err=%v", bench, cached, err)
		}
		_, coldMisses, puts := store.Stats()
		if coldMisses != 3 || puts != 3 {
			t.Fatalf("bench %q cold: misses=%d puts=%d (want 3 and 3)", bench, coldMisses, puts)
		}
		warm, cached, err := ObserveArtifactsCached(spec, store, "v1")
		if err != nil || !cached {
			t.Fatalf("bench %q warm: cached=%v err=%v", bench, cached, err)
		}
		hits, misses, _ := store.Stats()
		if hits != 3 || misses != coldMisses {
			t.Fatalf("bench %q warm: hits=%d, misses %d -> %d (want 3 hits, no new misses)",
				bench, hits, coldMisses, misses)
		}
		sameArtifacts(t, "cold vs uncached", cold, want)
		sameArtifacts(t, "warm vs uncached", warm, want)
	}
}

// TestObserveKeysDistinct: every input of the observe run moves its
// keys, and the defaulted benchmark keys like its explicit name.
func TestObserveKeysDistinct(t *testing.T) {
	base := Spec{Experiments: []string{"config"}}
	ref := observeKeys(base, "v1")
	seen := map[string]bool{}
	for _, k := range ref {
		if seen[k] {
			t.Fatalf("two artifacts share key %s", k)
		}
		seen[k] = true
	}
	if got := observeKeys(Spec{Experiments: []string{"fig7"}, ProfileBench: "Q"}, "v1"); got != ref {
		t.Errorf("defaulted and explicit Q keys differ")
	}
	for name, keys := range map[string][len(obsArtifacts)]string{
		"bench":   observeKeys(Spec{Experiments: []string{"config"}, ProfileBench: "BN"}, "v1"),
		"scale":   observeKeys(Spec{Experiments: []string{"config"}, Scale: "full"}, "v1"),
		"version": observeKeys(base, "v2"),
	} {
		for i, k := range keys {
			if seen[k] {
				t.Errorf("changing the %s left %s's key unchanged", name, obsArtifacts[i].Name)
			}
		}
	}
}

// TestObserveCorruptEntryRecomputes: one flipped byte in one stored
// artifact turns the lookup into a recompute with identical bytes, which
// re-stores the entry so the next lookup hits again.
func TestObserveCorruptEntryRecomputes(t *testing.T) {
	spec := Spec{Experiments: []string{"config"}}
	dir := t.TempDir()
	store, err := resultcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := ObserveArtifactsCached(spec, store, "v1")
	if err != nil {
		t.Fatal(err)
	}
	key := observeKeys(spec, "v1")[1]
	path := filepath.Join(dir, "cells", key[:2], key[2:])
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	got, cached, err := ObserveArtifactsCached(spec, store, "v1")
	if err != nil || cached {
		t.Fatalf("corrupt entry: cached=%v err=%v (want a recompute)", cached, err)
	}
	sameArtifacts(t, "recomputed vs original", got, want)
	again, cached, err := ObserveArtifactsCached(spec, store, "v1")
	if err != nil || !cached {
		t.Fatalf("after recompute: cached=%v err=%v (want a hit)", cached, err)
	}
	sameArtifacts(t, "re-stored vs original", again, want)
}

// TestObserveWithoutCacheOrVersionStoresNothing: a nil cache or an empty
// code version runs the observe pass uncached and leaves the store alone.
func TestObserveWithoutCacheOrVersionStoresNothing(t *testing.T) {
	spec := Spec{Experiments: []string{"config"}}
	store := openStore(t)
	for name, c := range map[string]*resultcache.Store{"nil cache": nil, "empty version": store} {
		arts, cached, err := ObserveArtifactsCached(spec, c, "")
		if err != nil || cached || len(arts) != len(obsArtifacts) {
			t.Fatalf("%s: %d artifacts, cached=%v, err=%v", name, len(arts), cached, err)
		}
	}
	if hits, misses, puts := store.Stats(); hits != 0 || misses != 0 || puts != 0 {
		t.Fatalf("store touched without a code version: hits=%d misses=%d puts=%d", hits, misses, puts)
	}
}

// TestProfileExperiment covers the "profile" experiment path: it renders
// the cycle-accounting table for the spec's benchmark, and an unknown
// benchmark is refused before anything runs.
func TestProfileExperiment(t *testing.T) {
	var out bytes.Buffer
	spec := Spec{Experiments: []string{"profile"}, ProfileBench: "BN", Parallel: 2}
	if _, err := Execute(context.Background(), spec, &out, Options{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Cycle accounting: BN") {
		t.Fatalf("profile output does not name its benchmark:\n%s", out.String())
	}

	bad := Spec{Experiments: []string{"profile"}, ProfileBench: "XX"}
	out.Reset()
	if _, err := Execute(context.Background(), bad, &out, Options{}); err == nil || out.Len() != 0 {
		t.Fatalf("unknown profile benchmark: err=%v, %d bytes written", err, out.Len())
	}
	if _, _, err := ObserveArtifactsCached(bad, nil, ""); err == nil {
		t.Fatal("observe pass accepted an unknown profile benchmark")
	}
}
