package workload

import "testing"

// Determinism stress: every scheme, multithreaded Q runs twice must agree
// bit-for-bit on cycles and traffic.
func TestDeterminismEverywhere(t *testing.T) {
	for _, scheme := range []string{"NP", "SW", "HWUndo", "HWRedo", "ASAP"} {
		run := func() (uint64, int64) {
			env := newEnv(scheme, nil)
			res := Run(env, []Benchmark{NewQueue()}, smallCfg())
			return res.Cycles, res.Stats["pm.writes"]
		}
		c1, w1 := run()
		c2, w2 := run()
		if c1 != c2 || w1 != w2 {
			t.Fatalf("%s diverged: cycles %d/%d writes %d/%d", scheme, c1, c2, w1, w2)
		}
	}
}
