package workload

import (
	"testing"

	"asap/internal/stats"
)

// TestSoakMixedFeatures drives the run knobs at once — more threads than
// the default, fences, 2 KB values on a subset — across all nine
// benchmarks under ASAP, and requires full consistency and complete
// commits. It is the widest single net in the suite.
func TestSoakMixedFeatures(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	type variant struct {
		name string
		cfg  Config
	}
	variants := []variant{
		{"mixed", Config{ValueBytes: 64, InitialItems: 96, Threads: 4, OpsPerThread: 60,
			Seed: 11}},
		{"fenced", Config{ValueBytes: 64, InitialItems: 96, Threads: 3, OpsPerThread: 50,
			Seed: 13, FencePeriod: 8}},
	}
	for _, b := range All() {
		for _, v := range variants {
			env := newEnv("ASAP", nil)
			res := Run(env, []Benchmark{ByName(b.Name())}, v.cfg)
			if res.CheckErr != "" {
				t.Fatalf("%s/%s: %s", b.Name(), v.name, res.CheckErr)
			}
			if res.Stats[stats.RegionsBegun] != res.Stats[stats.RegionsCommitted] {
				t.Fatalf("%s/%s: %d begun, %d committed", b.Name(), v.name,
					res.Stats[stats.RegionsBegun], res.Stats[stats.RegionsCommitted])
			}
		}
	}
	// And one 2 KB pass over the structure-heavy benchmarks.
	for _, name := range []string{"BT", "RB", "TPCC"} {
		env := newEnv("ASAP", nil)
		res := Run(env, []Benchmark{ByName(name)}, Config{
			ValueBytes: 2048, InitialItems: 32, Threads: 3, OpsPerThread: 25, Seed: 17,
		})
		if res.CheckErr != "" {
			t.Fatalf("%s 2KB soak: %s", name, res.CheckErr)
		}
	}
}
