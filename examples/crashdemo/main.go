// crashdemo reproduces the Figure 2 failure scenario and shows how ASAP's
// dependence tracking repairs it: a chain of control-dependent regions is
// interrupted by a power failure, and recovery rolls the suffix back so
// the persisted state is a consistent prefix — never a region committed
// ahead of one it depends on.
package main

import (
	"fmt"

	"asap"
)

func main() {
	cfg := asap.DefaultConfig()
	cfg.Cores = 2
	// A narrow memory path keeps persists in flight so the crash lands in
	// the interesting window (several regions ended but uncommitted).
	cfg.MemoryControllers, cfg.ChannelsPerMC = 1, 1
	cfg.WPQEntries = 2
	cfg.PMLatencyMultiplier = 16
	sys, err := asap.NewSystem(cfg)
	if err != nil {
		panic(err)
	}

	// An append-only ledger: entry i+1 is control dependent on entry i
	// (same thread, program order). Figure 2a's bug would be entry 5
	// persisting while entry 4 is lost; ASAP's Dependence List forbids it.
	const entries = 12
	ledger := sys.Malloc(64 * entries)
	tail := sys.Malloc(64)

	var crash *asap.CrashState
	sys.Spawn("appender", func(t *asap.Thread) {
		for i := uint64(0); i < entries; i++ {
			t.Begin()
			t.StoreUint64(ledger+64*i, 1000+i) // the record
			t.StoreUint64(tail, i+1)           // publish the new tail
			t.End()
			t.Compute(40)
			if i == entries/2 {
				// Power failure mid-stream, with persists outstanding.
				crash, _ = sys.Crash()
				return
			}
		}
	})
	if err := sys.Run(); err != nil {
		panic(err)
	}

	fmt.Printf("crash at cycle %d with ledger half-written\n", sys.Now())
	rep, err := crash.Recover()
	if err != nil {
		panic(err)
	}
	fmt.Printf("recovery rolled back %d uncommitted regions (%d undo entries)\n",
		rep.Uncommitted, rep.EntriesRestored)

	// Verify the prefix property: tail == n implies entries 0..n-1 are all
	// present, and nothing beyond the tail survived.
	n := crash.ReadUint64(tail)
	fmt.Printf("recovered tail = %d\n", n)
	for i := uint64(0); i < entries; i++ {
		v := crash.ReadUint64(ledger + 64*i)
		switch {
		case i < n && v != 1000+i:
			panic(fmt.Sprintf("entry %d missing below the tail: %d", i, v))
		case i >= n && v != 0:
			panic(fmt.Sprintf("entry %d survived beyond the tail: %d", i, v))
		}
	}
	fmt.Println("ledger is a consistent prefix: no entry committed ahead of its dependence")
}
