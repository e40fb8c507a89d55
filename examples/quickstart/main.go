// Quickstart: build an ASAP system, run atomically durable regions from a
// simulated thread, and read the hardware counters.
package main

import (
	"fmt"

	"asap"
)

func main() {
	// A Table 2 machine running the ASAP engine.
	sys, err := asap.NewSystem(asap.DefaultConfig())
	if err != nil {
		panic(err)
	}

	// Persistent allocations can be made up front...
	account := sys.Malloc(64)

	sys.Spawn("app", func(t *asap.Thread) {
		// ...or from inside a thread (asap_malloc).
		journal := t.Malloc(64 * 16)

		for i := uint64(1); i <= 10; i++ {
			// Everything between Begin and End is atomically durable:
			// either both the balance update and the journal entry
			// survive a crash, or neither does.
			t.Begin()
			balance := t.LoadUint64(account) + 100
			t.StoreUint64(account, balance)
			t.StoreUint64(journal+64*(i-1), balance)
			t.End()
			// End returns immediately — the commit happens in the
			// background (asynchronous persistence).
		}

		// Before an externally visible action, fence: every region this
		// thread ran (and everything they depend on) is then durable.
		t.Fence()
		fmt.Printf("balance after 10 deposits: %d\n", t.LoadUint64(account))
		t.Drain()
	})
	if err := sys.Run(); err != nil {
		panic(err)
	}

	st := sys.Stats()
	fmt.Printf("regions committed: %d\n", st["region.committed"])
	fmt.Printf("log persists (LPOs) issued: %d, dropped in WPQ: %d\n", st["lpo.issued"], st["lpo.dropped"])
	fmt.Printf("data persists (DPOs) issued: %d, coalesced: %d\n", st["dpo.issued"], st["dpo.coalesced"])
	fmt.Printf("PM line writes: %d in %d cycles\n", st["pm.writes"], sys.Now())
}
