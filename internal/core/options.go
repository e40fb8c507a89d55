package core

// Options sizes ASAP's hardware structures and toggles the §5.1 traffic
// optimizations (the Figure 9a ablation knobs). Defaults follow Table 2.
type Options struct {
	// CLListEntries is the Modified Cache Line List capacity per core.
	CLListEntries int
	// CLPtrSlots is the number of CLPtr slots per CL List entry.
	CLPtrSlots int
	// DepListEntries is the Dependence List capacity per memory channel.
	DepListEntries int
	// DepSlots is the number of Dep slots per Dependence List entry.
	DepSlots int
	// CoalesceDistance is how many updates to other lines are awaited
	// before a line's DPO is initiated (§4.6.2; empirically 4).
	CoalesceDistance int
	// Coalescing enables DPO coalescing (§5.1).
	Coalescing bool
	// LPODropping enables dropping a committed region's queued LPOs.
	LPODropping bool
	// DPODropping enables dropping a queued DPO when a later region's LPO
	// for the same line arrives.
	DPODropping bool
	// LogBufferBytes is the initial per-thread log buffer size.
	LogBufferBytes uint64
	// BloomBits sizes the per-engine Bloom filter (Table 2: 1 KB/channel).
	BloomBits int
	// BeginCost/EndCost are the core-visible costs of asap_begin/asap_end
	// bookkeeping, in cycles.
	BeginCost, EndCost uint64
	// OverflowPenalty is the log-overflow exception cost in cycles.
	OverflowPenalty uint64
	// UnsafeEarlyLogFree deliberately breaks the §4.7 commit rule by
	// freeing a region's undo log at asap_end instead of at commit. It
	// exists solely as the crash harness's torture negative control: the
	// invariant engine must catch the violation (DESIGN.md §11). Never
	// enable it in a real configuration.
	UnsafeEarlyLogFree bool
}

// DefaultOptions returns the paper's configuration with all three traffic
// optimizations enabled.
func DefaultOptions() Options {
	return Options{
		CLListEntries:    4,
		CLPtrSlots:       8,
		DepListEntries:   128,
		DepSlots:         4,
		CoalesceDistance: 4,
		Coalescing:       true,
		LPODropping:      true,
		DPODropping:      true,
		LogBufferBytes:   256 << 10,
		BloomBits:        4 * 8192, // 1 KB/channel x 4 channels
		BeginCost:        4,
		EndCost:          4,
		OverflowPenalty:  2000,
	}
}
