package experiment

import (
	"reflect"
	"testing"

	"asap/internal/machine"
	"asap/internal/snapshot"
	"asap/internal/workload"
)

// machineDigest hashes every section of m's state.
func machineDigest(m *machine.Machine) []snapshot.Section {
	e := snapshot.NewEnc()
	m.AppendState(e)
	return e.Sections()
}

// TestRecycledMachineStartsFresh runs a quick cell under each of the seven
// schemes on a machine whose cache arrays no other machine ever used, and
// releases it. The next machine of that configuration takes the released
// arrays from the pool: right after New, and again after the same cell,
// its state must digest exactly as the never-pooled machine's did.
func TestRecycledMachineStartsFresh(t *testing.T) {
	scale := QuickScale()
	cfg := workload.Config{
		ValueBytes: 64, InitialItems: scale.InitialItems,
		Threads: scale.Threads, OpsPerThread: scale.OpsPerThread, Seed: 42,
	}
	for i, scheme := range []string{"NP", "SW", "SW-DPOOnly", "HWUndo", "HWRedo", "ASAP", "ASAP-Redo"} {
		t.Run(scheme, func(t *testing.T) {
			// Latencies that no other machine in this process uses give
			// the level configurations a pool of their own, empty until
			// this test releases into it.
			mc := machine.DefaultConfig()
			mc.Caches.L1.Latency += uint64(100 + i)
			mc.Caches.L2.Latency += uint64(100 + i)
			mc.Caches.L3.Latency += uint64(100 + i)
			v := Variant{Scheme: scheme}

			digests := func() (atNew, afterRun []snapshot.Section) {
				m, s := newCell(v, mc)
				atNew = machineDigest(m)
				res := workload.Run(&workload.Env{M: m, S: s}, []workload.Benchmark{workload.ByName("HM")}, cfg)
				if res.Stall != nil || res.CheckErr != "" {
					t.Fatalf("cell failed: stall %v, check %q", res.Stall, res.CheckErr)
				}
				afterRun = machineDigest(m)
				m.Release()
				return atNew, afterRun
			}
			freshNew, freshRun := digests()
			pooledNew, pooledRun := digests()
			if !reflect.DeepEqual(pooledNew, freshNew) {
				t.Fatalf("a recycled machine's state differs from a new one's:\n%v\n%v", pooledNew, freshNew)
			}
			if !reflect.DeepEqual(pooledRun, freshRun) {
				t.Fatalf("the cell on a recycled machine ended in another state:\n%v\n%v", pooledRun, freshRun)
			}
		})
	}
}
