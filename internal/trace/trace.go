// Package trace records the persistence protocol's events — region
// lifecycle, persist operations, drops, dependence captures — into a
// bounded ring buffer for debugging and for tests that assert on event
// ordering. Tracing is off unless a buffer is attached, and costs nothing
// in simulated time.
package trace

import (
	"fmt"
	"strings"

	"asap/internal/arch"
)

// Kind classifies a protocol event.
type Kind uint8

// The protocol events.
const (
	RegionBegin Kind = iota
	RegionEnd
	RegionCommit
	LPOIssue
	LPOAccept
	LPODrop
	DPOIssue
	DPOAccept
	DPODrop
	DepAdd
	OwnerSpill
	OwnerReload
	Migrate
	LogOverflow
)

var kindNames = map[Kind]string{
	RegionBegin:  "region.begin",
	RegionEnd:    "region.end",
	RegionCommit: "region.commit",
	LPOIssue:     "lpo.issue",
	LPOAccept:    "lpo.accept",
	LPODrop:      "lpo.drop",
	DPOIssue:     "dpo.issue",
	DPOAccept:    "dpo.accept",
	DPODrop:      "dpo.drop",
	DepAdd:       "dep.add",
	OwnerSpill:   "owner.spill",
	OwnerReload:  "owner.reload",
	Migrate:      "migrate",
	LogOverflow:  "log.overflow",
}

// String names the kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", k)
}

// Event is one protocol occurrence.
type Event struct {
	// At is the simulated cycle.
	At uint64
	// Kind classifies the event.
	Kind Kind
	// RID is the atomic region involved (NoRID when not applicable).
	RID arch.RID
	// Line is the cache line involved (0 when not applicable).
	Line arch.LineAddr
	// Aux carries kind-specific detail: the dependence RID for DepAdd,
	// the target core for Migrate.
	Aux uint64
}

// String formats the event one-per-line style.
func (e Event) String() string {
	s := fmt.Sprintf("%10d %-14s %s", e.At, e.Kind, e.RID)
	if e.Line != 0 {
		s += fmt.Sprintf(" line=%#x", uint64(e.Line))
	}
	if e.Aux != 0 {
		s += fmt.Sprintf(" aux=%#x", e.Aux)
	}
	return s
}

// Buffer is a bounded event ring. The zero value is unusable; create with
// NewBuffer.
type Buffer struct {
	ring  []Event
	next  int
	count int
}

// NewBuffer returns a ring holding the most recent capacity events.
func NewBuffer(capacity int) *Buffer {
	if capacity <= 0 {
		capacity = 1024
	}
	return &Buffer{ring: make([]Event, capacity)}
}

// Emit appends an event, evicting the oldest when full.
func (b *Buffer) Emit(e Event) {
	b.ring[b.next] = e
	b.next = (b.next + 1) % len(b.ring)
	if b.count < len(b.ring) {
		b.count++
	}
}

// Events returns the retained events, oldest first.
func (b *Buffer) Events() []Event {
	out := make([]Event, 0, b.count)
	start := b.next - b.count
	if start < 0 {
		start += len(b.ring)
	}
	for i := 0; i < b.count; i++ {
		out = append(out, b.ring[(start+i)%len(b.ring)])
	}
	return out
}

// String dumps the retained events.
func (b *Buffer) String() string {
	var sb strings.Builder
	for _, e := range b.Events() {
		sb.WriteString(e.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}
