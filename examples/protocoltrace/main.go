// protocoltrace makes the ASAP protocol visible: it runs two dependent
// atomic regions with an artificially slow persistent memory and prints
// the hardware event stream — LPO/DPO issue and accept, dependence
// capture, and the asynchronous commits happening long after asap_end.
package main

import (
	"fmt"

	"asap"
	"asap/internal/core"
	"asap/internal/machine"
	"asap/internal/sim"
	"asap/internal/trace"
)

func main() {
	// Build at the machine layer so the trace buffer can be attached.
	mc := machine.DefaultConfig()
	mc.Cores = 2
	mc.Mem.Controllers, mc.Mem.ChannelsPerMC = 1, 1
	mc.Mem.WPQEntries = 1
	mc.Mem.PMWriteCycles = 2000 // slow device: events spread out visibly
	m := machine.New(mc)
	e := core.NewEngine(m, core.DefaultOptions())
	buf := trace.NewBuffer(256)
	e.SetTrace(buf)

	x := m.Heap.Alloc(64, true)
	y := m.Heap.Alloc(64, true)
	var mu sim.Mutex

	producer := func(t *sim.Thread) {
		mu.Lock(t)
		e.Begin(t)
		var b [8]byte
		b[0] = 7
		e.Store(t, x, b[:])
		e.End(t)
		mu.Unlock(t)
		fmt.Printf("[%6d] producer past asap_end (commit still pending)\n", t.Now())
	}
	consumer := func(t *sim.Thread) {
		t.Advance(300)
		mu.Lock(t)
		e.Begin(t)
		var b [8]byte
		e.Load(t, x, b[:])
		b[0]++
		e.Store(t, y, b[:])
		e.End(t)
		mu.Unlock(t)
		fmt.Printf("[%6d] consumer past asap_end (depends on producer)\n", t.Now())
	}
	for _, fn := range []func(*sim.Thread){producer, consumer} {
		fn := fn
		m.K.Spawn("t", func(t *sim.Thread) {
			e.InitThread(t)
			fn(t)
			e.DrainBarrier(t)
		})
	}
	if err := m.K.Run(); err != nil {
		panic(err)
	}

	fmt.Println("\nprotocol event stream:")
	fmt.Print(buf.String())
	fmt.Println("\nreading the stream: both region.end events appear well before")
	fmt.Println("their region.commit events (asynchronous commit), the consumer's")
	fmt.Println("dep.add names the producer, and the commits occur in dependence")
	fmt.Println("order even though all persists ran in the background.")

	// The same machinery is reachable from the public API via the engine.
	_ = asap.SchemeASAP
}
