// Package stats is a lightweight counter registry shared by every simulator
// component. Counters are plain int64s keyed by name; higher layers derive
// throughput, traffic and latency metrics from them after a run.
package stats

import (
	"math/bits"
	"sort"
)

// Well-known counter names used across the simulator. Components add to
// these; experiments read them.
const (
	// Persistent-memory traffic, counted in 64 B line writes when a WPQ
	// entry actually drains to the PM device (dropped entries never count).
	PMWrites = "pm.writes"
	PMReads  = "pm.reads"
	// DRAM device traffic.
	DRAMWrites = "dram.writes"
	DRAMReads  = "dram.reads"

	// Persist operations by kind.
	LPOsIssued   = "lpo.issued"
	LPOsDropped  = "lpo.dropped"
	DPOsIssued   = "dpo.issued"
	DPOsDropped  = "dpo.dropped"
	DPOsCoalesce = "dpo.coalesced"

	// Region lifecycle.
	RegionsBegun     = "region.begun"
	RegionsCommitted = "region.committed"
	RegionCycles     = "region.cycles" // summed core-visible latency
	DepEdges         = "dep.edges"
	DepStalls        = "stall.depslots"
	CLStalls         = "stall.clptr"
	WPQStalls        = "stall.wpq"
	LHWPQStalls      = "stall.lhwpq"
	LogOverflows     = "log.overflow"

	// Cache behaviour.
	L1Hits         = "l1.hits"
	L1Misses       = "l1.misses"
	L2Hits         = "l2.hits"
	L2Misses       = "l2.misses"
	L3Hits         = "l3.hits"
	L3Misses       = "l3.misses"
	Evictions      = "cache.evictions"
	OwnerIDSpills  = "ownerid.spills"
	OwnerIDReloads = "ownerid.reloads"
	BloomHits      = "bloom.hits"
	BloomClears    = "bloom.clears"

	// Workload progress.
	Ops    = "workload.ops"
	Fences = "workload.fences"
	// FenceCycles accumulates the time threads spend blocked inside
	// asap_fence waiting for commits.
	FenceCycles = "workload.fencecycles"
)

// Set is a named-counter collection. The zero value is not usable; create
// one with New. Set is not safe for concurrent use, which is fine: the
// simulation kernel runs one thread at a time.
//
// Counters are boxed so Counter can hand hot paths a stable *int64: the
// cache hierarchy and memory fabric increment per-access counters through
// cached pointers instead of a map probe per event.
type Set struct {
	counters map[string]*int64
	hists    map[string]*Histogram
	cells    *Cells
}

// New returns an empty counter set.
func New() *Set {
	return &Set{counters: make(map[string]*int64)}
}

// Counter returns a stable pointer to counter name, creating it at zero.
func (s *Set) Counter(name string) *int64 {
	p, ok := s.counters[name]
	if !ok {
		p = new(int64)
		s.counters[name] = p
	}
	return p
}

// Get returns the value of counter name (zero if never touched).
func (s *Set) Get(name string) int64 {
	if p, ok := s.counters[name]; ok {
		return *p
	}
	return 0
}

// Names returns every touched counter name in sorted order. Counters that
// were created by Counter but never incremented are omitted, so eagerly
// cached hot-path counters do not change reported output.
func (s *Set) Names() []string {
	names := make([]string, 0, len(s.counters))
	for name, p := range s.counters {
		if *p != 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// Snapshot returns a copy of the counters map (touched counters only, as
// with Names).
func (s *Set) Snapshot() map[string]int64 {
	out := make(map[string]int64, len(s.counters))
	for k, v := range s.counters {
		if *v != 0 {
			out[k] = *v
		}
	}
	return out
}

// Histogram collects a distribution in log-linear (HDR-style) buckets:
// eight sub-buckets per octave give ~12 % resolution at every magnitude,
// cheap enough to run always-on and precise enough for tail-latency
// percentiles.
type Histogram struct {
	buckets [histBuckets]int64
	count   int64
	maxIdx  int // highest occupied bucket, for bounded scans
}

// histSub is the number of sub-buckets per power-of-two octave.
const histSub = 8

// histBuckets bounds the bucket index: 64 octaves x histSub sub-buckets
// covers every uint64 value, so Observe is a bounds-check-free array
// increment instead of a map insert.
const histBuckets = 64 * histSub

// histIndex maps a value to its log-linear bucket.
func histIndex(v uint64) int {
	if v < histSub {
		return int(v) // exact below one octave of sub-buckets
	}
	octave := 63 - bits.LeadingZeros64(v)
	sub := int(v>>(uint(octave)-3)) & (histSub - 1)
	return octave*histSub + sub
}

// histUpper returns the inclusive upper bound of bucket idx.
func histUpper(idx int) uint64 {
	if idx < histSub {
		return uint64(idx)
	}
	octave := idx / histSub
	sub := idx % histSub
	return (uint64(histSub+sub+1) << (uint(octave) - 3)) - 1
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	idx := histIndex(v)
	h.buckets[idx]++
	h.count++
	if idx > h.maxIdx {
		h.maxIdx = idx
	}
}

// Quantile returns an upper bound on the q-quantile (0 < q <= 1): the top
// of the log-linear bucket containing it (within ~12 % of the true value).
func (h *Histogram) Quantile(q float64) uint64 {
	if h.count == 0 {
		return 0
	}
	target := int64(q * float64(h.count))
	if target < 1 {
		target = 1
	}
	var seen int64
	for idx := 0; idx <= h.maxIdx; idx++ {
		seen += h.buckets[idx]
		if seen >= target {
			return histUpper(idx)
		}
	}
	return histUpper(h.maxIdx)
}

// Hist returns the named histogram, creating it on first use.
func (s *Set) Hist(name string) *Histogram {
	if s.hists == nil {
		s.hists = make(map[string]*Histogram)
	}
	h, ok := s.hists[name]
	if !ok {
		h = &Histogram{}
		s.hists[name] = h
	}
	return h
}

// RegionLatency is the histogram of core-visible atomic-region latencies,
// the distribution behind the paper's tail-latency motivation (§1).
const RegionLatency = "region.latency"

// CommitLag is the histogram of asap_end-to-commit distances: the
// asynchrony window that ASAP overlaps with execution. Synchronous
// schemes have a zero lag by construction.
const CommitLag = "region.commitlag"

// WPQDepth is the histogram of per-channel WPQ occupancy, observed at
// every accept.
const WPQDepth = "wpq.depth"

// LHWPQDepth is the histogram of per-channel LH-WPQ live entries,
// observed at every accept on that channel.
const LHWPQDepth = "lhwpq.depth"

// Cells is every well-known counter and histogram pre-resolved to its
// stable pointer, so per-event hot paths (persist issue/drain, fences,
// dependence checks, WPQ accepts) pay one pointer chase instead of a
// string-keyed map probe. Pre-creating counters is output-neutral:
// Names/Snapshot omit counters that are still zero.
type Cells struct {
	PMWrites, PMReads, DRAMWrites, DRAMReads              *int64
	LPOsIssued, LPOsDropped, DPOsIssued, DPOsDropped      *int64
	DPOsCoalesce                                          *int64
	RegionsBegun, RegionsCommitted, RegionCycles          *int64
	DepEdges, DepStalls, CLStalls, WPQStalls, LHWPQStalls *int64
	LogOverflows                                          *int64
	OwnerIDSpills, OwnerIDReloads, BloomHits, BloomClears *int64
	Ops, Fences, FenceCycles                              *int64
	RegionLatency, CommitLag, WPQDepth, LHWPQDepth        *Histogram
}

// Cells returns the set's pre-resolved hot-path cells, building them on
// first use. All callers share one Cells per Set.
func (s *Set) Cells() *Cells {
	if s.cells == nil {
		s.cells = &Cells{
			PMWrites:         s.Counter(PMWrites),
			PMReads:          s.Counter(PMReads),
			DRAMWrites:       s.Counter(DRAMWrites),
			DRAMReads:        s.Counter(DRAMReads),
			LPOsIssued:       s.Counter(LPOsIssued),
			LPOsDropped:      s.Counter(LPOsDropped),
			DPOsIssued:       s.Counter(DPOsIssued),
			DPOsDropped:      s.Counter(DPOsDropped),
			DPOsCoalesce:     s.Counter(DPOsCoalesce),
			RegionsBegun:     s.Counter(RegionsBegun),
			RegionsCommitted: s.Counter(RegionsCommitted),
			RegionCycles:     s.Counter(RegionCycles),
			DepEdges:         s.Counter(DepEdges),
			DepStalls:        s.Counter(DepStalls),
			CLStalls:         s.Counter(CLStalls),
			WPQStalls:        s.Counter(WPQStalls),
			LHWPQStalls:      s.Counter(LHWPQStalls),
			LogOverflows:     s.Counter(LogOverflows),
			OwnerIDSpills:    s.Counter(OwnerIDSpills),
			OwnerIDReloads:   s.Counter(OwnerIDReloads),
			BloomHits:        s.Counter(BloomHits),
			BloomClears:      s.Counter(BloomClears),
			Ops:              s.Counter(Ops),
			Fences:           s.Counter(Fences),
			FenceCycles:      s.Counter(FenceCycles),
			RegionLatency:    s.Hist(RegionLatency),
			CommitLag:        s.Hist(CommitLag),
			WPQDepth:         s.Hist(WPQDepth),
			LHWPQDepth:       s.Hist(LHWPQDepth),
		}
	}
	return s.cells
}
