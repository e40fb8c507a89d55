package core

import (
	"asap/internal/arch"
	"asap/internal/cache"
)

// CLSlot is one CLPtr slot in a CL List entry (§4.6.2): a modified line
// whose DPO has not yet completed.
type CLSlot struct {
	Line arch.LineAddr
	// Meta is the line's tag-extension metadata, cached when the slot is
	// (re)armed by a write so DPO-eligibility checks (lock count) are a
	// field read, not a table probe. Hardware keeps the CLPtr next to the
	// L1 controller for the same reason.
	Meta *cache.Meta
	// NeedIssue is set when the line has unpersisted writes requiring a
	// DPO; cleared when the DPO is submitted.
	NeedIssue bool
	// Outstanding counts DPOs in flight for the line (at most 1).
	Outstanding int
	// Age is how many updates to other lines have happened since this
	// line's last write; a DPO is initiated at Age >= coalesce distance.
	Age int
	// Forced marks a slot whose DPO must issue as soon as its LPO
	// completes, ignoring the coalescing distance: set when the region
	// stalls for a free slot, to guarantee forward progress.
	Forced bool
}

// CLEntry is one Modified Cache Line List entry (Figure 3 ❸): the slots of
// one in-flight atomic region plus its StateL1 (Done once asap_end ran and
// no more writes are coming).
type CLEntry struct {
	RID   arch.RID
	Done  bool
	Slots []*CLSlot
}

// Slot returns the slot for line, or nil.
func (e *CLEntry) Slot(line arch.LineAddr) *CLSlot {
	for _, s := range e.Slots {
		if s.Line == line {
			return s
		}
	}
	return nil
}

// removeSlot clears the slot for line.
func (e *CLEntry) removeSlot(line arch.LineAddr) {
	for i, s := range e.Slots {
		if s.Line == line {
			e.Slots = append(e.Slots[:i], e.Slots[i+1:]...)
			return
		}
	}
}

// CLList is one core's Modified Cache Line List (Table 2: 4 entries/core,
// 8 CLPtr slots each). It lives in the L1 cache controller.
type CLList struct {
	cap     int
	slotCap int
	entries []*CLEntry
}

// NewCLList builds a list with the given region entries and slots each.
func NewCLList(capacity, slots int) *CLList {
	return &CLList{cap: capacity, slotCap: slots}
}

// HasSpace reports whether a new region entry fits.
func (l *CLList) HasSpace() bool { return len(l.entries) < l.cap }

// Add creates the entry for region r (asap_begin ①).
func (l *CLList) Add(r arch.RID) *CLEntry {
	if !l.HasSpace() {
		panic("core: CL List overflow")
	}
	e := &CLEntry{RID: r}
	l.entries = append(l.entries, e)
	return e
}

// Remove frees region r's entry (all DPOs complete, ③).
func (l *CLList) Remove(r arch.RID) {
	for i, e := range l.entries {
		if e.RID == r {
			l.entries = append(l.entries[:i], l.entries[i+1:]...)
			return
		}
	}
}

// SlotCap returns the CLPtr slots per entry.
func (l *CLList) SlotCap() int { return l.slotCap }

// Cap returns the entry capacity.
func (l *CLList) Cap() int { return l.cap }

// Len returns the number of occupied entries.
func (l *CLList) Len() int { return len(l.entries) }

// Entries returns the occupied entries in insertion order. The slice is
// the list's own backing store: callers must treat it as read-only.
func (l *CLList) Entries() []*CLEntry { return l.entries }

// CanAddSlot reports whether entry e can track line right now.
func (l *CLList) CanAddSlot(e *CLEntry, line arch.LineAddr) bool {
	if e.Slot(line) != nil {
		return true
	}
	return len(e.Slots) < l.slotCap
}

// AddSlot returns the slot tracking line, creating it if needed. Panics
// when the slots are full (callers gate on CanAddSlot).
func (l *CLList) AddSlot(e *CLEntry, line arch.LineAddr) *CLSlot {
	if s := e.Slot(line); s != nil {
		return s
	}
	if len(e.Slots) >= l.slotCap {
		panic("core: CLPtr slots overflow for " + e.RID.String())
	}
	s := &CLSlot{Line: line}
	e.Slots = append(e.Slots, s)
	return s
}
