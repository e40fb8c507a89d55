package asap_test

import (
	"fmt"

	"asap"
)

// The smallest complete program: one thread, one atomically durable
// region, counters afterwards.
func Example() {
	sys, _ := asap.NewSystem(asap.DefaultConfig())
	cell := sys.Malloc(64)
	sys.Spawn("app", func(t *asap.Thread) {
		t.Begin()
		t.StoreUint64(cell, 42)
		t.End() // returns immediately; the commit is asynchronous
		t.Drain()
	})
	if err := sys.Run(); err != nil {
		panic(err)
	}
	fmt.Println("committed regions:", sys.Stats()["region.committed"])
	// Output: committed regions: 1
}

// Fence makes everything the thread has done durable before an external
// action — the §5.2 pattern.
func ExampleThread_Fence() {
	sys, _ := asap.NewSystem(asap.DefaultConfig())
	cell := sys.Malloc(64)
	sys.Spawn("app", func(t *asap.Thread) {
		for i := uint64(1); i <= 3; i++ {
			t.Begin()
			t.StoreUint64(cell, i)
			t.End()
		}
		t.Fence() // all three regions are durable past this point
		fmt.Println("durable value:", t.LoadUint64(cell))
	})
	if err := sys.Run(); err != nil {
		panic(err)
	}
	// Output: durable value: 3
}

// Crash freezes the machine mid-run; Recover rolls uncommitted regions
// back so the persisted image is a consistent prefix.
func ExampleSystem_Crash() {
	cfg := asap.DefaultConfig()
	cfg.Cores = 2
	sys, _ := asap.NewSystem(cfg)
	cell := sys.Malloc(64)
	var crash *asap.CrashState
	sys.Spawn("app", func(t *asap.Thread) {
		t.Begin()
		t.StoreUint64(cell, 7)
		t.End()
		t.Drain() // let the region commit before the failure
		crash, _ = sys.Crash()
	})
	if err := sys.Run(); err != nil {
		panic(err)
	}
	crash.Recover()
	fmt.Println("persisted:", crash.ReadUint64(cell))
	// Output: persisted: 7
}

// Mutex provides the isolation the paper leaves to software (§2.1):
// conflicting atomic regions nest inside critical sections.
func ExampleMutex() {
	sys, _ := asap.NewSystem(asap.DefaultConfig())
	counter := sys.Malloc(64)
	var mu asap.Mutex
	for i := 0; i < 3; i++ {
		sys.Spawn("worker", func(t *asap.Thread) {
			for j := 0; j < 5; j++ {
				mu.Lock(t)
				t.Begin()
				t.StoreUint64(counter, t.LoadUint64(counter)+1)
				t.End()
				mu.Unlock(t)
			}
			t.Drain()
		})
	}
	if err := sys.Run(); err != nil {
		panic(err)
	}
	crash, _ := sys.Crash()
	fmt.Println("persisted counter:", crash.ReadUint64(counter))
	// Output: persisted counter: 15
}

// Schemes can be swapped without touching program code: here the same
// region runs under the synchronous-commit hardware undo baseline.
func ExampleConfig_scheme() {
	cfg := asap.DefaultConfig()
	cfg.Scheme = asap.SchemeHWUndo
	sys, _ := asap.NewSystem(cfg)
	cell := sys.Malloc(64)
	sys.Spawn("app", func(t *asap.Thread) {
		t.Begin()
		t.StoreUint64(cell, 1)
		t.End() // HWUndo waits here for LPOs and DPOs (synchronous commit)
		t.Drain()
	})
	if err := sys.Run(); err != nil {
		panic(err)
	}
	fmt.Println(sys.SchemeImpl().Name())
	// Output: HWUndo
}
