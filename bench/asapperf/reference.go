package main

import (
	"math/rand"
	"runtime/debug"
	"sync"
	"time"
)

// The host this benchmark runs on shares its cores with other tenants,
// and their load changes its speed by 10-25 % over minutes; CPU time
// moves with wall time, so the slowdown is inside the core, not stolen
// time. A run therefore also times a fixed reference kernel before its
// first pass and after every pass, and reports each pass's timings
// scaled to the reference's nominal speed. The kernel is this file's
// own code, so no change to the program moves it.
//
// It mimics what the simulator spends its time on: a pointer chase that
// misses the caches, a set-associative LRU lookup loop, map lookups and
// a goroutine handoff over unbuffered channels, on as many goroutines as
// the simulator workloads use.

// refNominal is the reference kernel's CPU time on a quiet host.
const refNominal = time.Second

// refData is one goroutine's working set: about 20 MB, all of it free of
// pointers, so the garbage collector never scans it.
type refData struct {
	next  []uint32 // a single cycle through every index
	tags  []uint64 // a 4096-set, 16-way tag array
	lru   []uint32
	addrs []uint64
	m     map[uint64]uint64
}

const (
	refChase   = 1 << 22
	refSets    = 4096
	refWays    = 16
	refKeys    = 1 << 16
	refAddrs   = 1 << 20
	refHandoff = 150_000
)

func newRefData(seed int64) *refData {
	rng := rand.New(rand.NewSource(seed))
	d := &refData{
		next:  make([]uint32, refChase),
		tags:  make([]uint64, refSets*refWays),
		lru:   make([]uint32, refSets*refWays),
		addrs: make([]uint64, refAddrs),
		m:     make(map[uint64]uint64, refKeys),
	}
	perm := rng.Perm(refChase)
	for i, p := range perm {
		d.next[p] = uint32(perm[(i+1)%refChase])
	}
	for i := range d.addrs {
		d.addrs[i] = uint64(rng.ExpFloat64() * (1 << 26))
	}
	for i := range uint64(refKeys) {
		d.m[i*2654435761] = i
	}
	return d
}

// run does the kernel's fixed work and returns a value derived from all
// of it, so none of it can be optimised away.
func (d *refData) run() uint64 {
	p := uint32(0)
	for range 1_500_000 {
		p = d.next[p]
	}
	var clock uint32
	hits := 0
	for range 3 {
		for _, a := range d.addrs {
			line := a >> 6
			set := int(line%refSets) * refWays
			clock++
			victim, oldest := set, d.lru[set]
			hit := false
			for w := set; w < set+refWays; w++ {
				if d.tags[w] == line {
					d.lru[w] = clock
					hits++
					hit = true
					break
				}
				if d.lru[w] < oldest {
					victim, oldest = w, d.lru[w]
				}
			}
			if !hit {
				d.tags[victim], d.lru[victim] = line, clock
			}
		}
	}
	s := uint64(0)
	for i := range uint64(1_000_000) {
		s += d.m[(i%refKeys)*2654435761]
	}
	ping, pong := make(chan int), make(chan int)
	go func() {
		for v := range ping {
			pong <- v + 1
		}
	}()
	v := 0
	for range refHandoff {
		ping <- v
		v = <-pong
	}
	close(ping)
	return uint64(p) + uint64(hits) + s + uint64(v)
}

// refSink keeps the kernel's result alive.
var refSink uint64

// referenceCPU runs the reference kernel once per simulator worker, all
// at once, and returns the CPU time they took. The working sets are
// built before the timed part, and after it they are collected and
// their memory returned to the operating system, so they count in
// neither the next pass's garbage collection nor its peak resident set.
func referenceCPU() time.Duration {
	cpu := timeReference()
	debug.FreeOSMemory()
	return cpu
}

func timeReference() time.Duration {
	width := simWidth()
	data := make([]*refData, width)
	for i := range data {
		data[i] = newRefData(int64(i + 1))
	}
	results := make([]uint64, width)
	var wg sync.WaitGroup
	c0 := selfCPU()
	for i := range data {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = data[i].run()
		}()
	}
	wg.Wait()
	cpu := selfCPU() - c0
	for _, r := range results {
		refSink += r
	}
	return cpu
}
