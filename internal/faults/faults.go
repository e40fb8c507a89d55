// Package faults is a deterministic, seeded fault-injection layer for the
// persistence domain. It plugs into the memory fabric's ADR crash flush
// (memdev.FaultInjector) to model the failure modes real PM studies treat
// as first class: torn cache-line persists (partial 64 B writes at power
// loss), accepted WPQ entries that never reach media, reordered flushes,
// and bit-flip media errors in the persisted image.
//
// Every decision is drawn from a private PRNG, and every injected fault is
// recorded as an Event tagged with the decision sequence number. Because
// injection only acts at crash time — never during the simulated execution
// leading up to it — re-running the same workload with Replay and a subset
// of the recorded events reproduces exactly that subset of damage, which
// is what lets the crash-consistency checker shrink a failing case to a
// minimal fault set.
package faults

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"asap/internal/arch"
	"asap/internal/memdev"
)

// Class names one injected fault kind.
type Class string

// The fault classes.
const (
	Torn       Class = "torn"    // partial cache-line persist at flush
	Drop       Class = "drop"    // accepted entry never reaches media
	Reorder    Class = "reorder" // channel flush order permuted
	BitFlip    Class = "bitflip" // media error in a persisted line
	HeaderDrop Class = "lhdrop"  // LH-WPQ header lost from the crash snapshot
)

// Mix is the fault mixture: per-entry probabilities for torn and dropped
// persists, a per-channel probability for flush reordering, a bit-flip
// count over the candidate lines handed to FlipBits.
type Mix struct {
	TornPct    float64
	DropPct    float64
	ReorderPct float64
	BitFlips   int
	// LHDropPct is the per-header probability that a resident LH-WPQ
	// header is lost from the crash snapshot (the memdev
	// HeaderFaultInjector path).
	LHDropPct float64
}

// Zero reports whether the mix injects nothing.
func (m Mix) Zero() bool {
	return m.TornPct == 0 && m.DropPct == 0 && m.ReorderPct == 0 && m.BitFlips == 0 && m.LHDropPct == 0
}

// String renders the mix in the form ParseMix accepts.
func (m Mix) String() string {
	if m.Zero() {
		return "none"
	}
	var parts []string
	add := func(k string, v float64) {
		if v > 0 {
			parts = append(parts, fmt.Sprintf("%s=%g", k, v))
		}
	}
	add("torn", m.TornPct)
	add("drop", m.DropPct)
	add("reorder", m.ReorderPct)
	add("lhdrop", m.LHDropPct)
	if m.BitFlips > 0 {
		parts = append(parts, fmt.Sprintf("flip=%d", m.BitFlips))
	}
	return strings.Join(parts, ",")
}

// ParseMix parses "torn=0.2,drop=0.1,reorder=0.25,flip=2" style strings.
// The shorthands "none" (no faults) and "all" (a representative mixed
// load) are accepted.
func ParseMix(s string) (Mix, error) {
	var m Mix
	s = strings.TrimSpace(s)
	switch s {
	case "", "none":
		return m, nil
	case "all":
		return Mix{TornPct: 0.25, DropPct: 0.25, ReorderPct: 0.25, BitFlips: 1}, nil
	}
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return m, fmt.Errorf("faults: bad mix element %q (want key=value)", part)
		}
		key, val := strings.TrimSpace(kv[0]), strings.TrimSpace(kv[1])
		if key == "flip" {
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return m, fmt.Errorf("faults: bad flip count %q", val)
			}
			m.BitFlips = n
			continue
		}
		p, err := strconv.ParseFloat(val, 64)
		if err != nil || p < 0 || p > 1 {
			return m, fmt.Errorf("faults: bad probability %q for %q", val, key)
		}
		switch key {
		case "torn":
			m.TornPct = p
		case "drop":
			m.DropPct = p
		case "reorder":
			m.ReorderPct = p
		case "lhdrop":
			m.LHDropPct = p
		default:
			return m, fmt.Errorf("faults: unknown mix key %q", key)
		}
	}
	return m, nil
}

// Event is one injected fault, identified by the decision sequence number
// at which it fired. A run's event list, fed back through Replay, inflicts
// exactly the same damage.
type Event struct {
	Seq     int           `json:"seq"`
	Class   Class         `json:"class"`
	Channel int           `json:"channel"`
	Kind    string        `json:"kind,omitempty"`
	RID     arch.RID      `json:"rid,omitempty"`
	Line    arch.LineAddr `json:"line,omitempty"`
	// TearAt is how many leading bytes of the new payload persisted
	// before the write tore (torn class).
	TearAt int `json:"tear_at,omitempty"`
	// Bit is the flipped bit's index within the 64 B line (bitflip class).
	Bit int `json:"bit,omitempty"`
}

func (ev Event) String() string {
	switch ev.Class {
	case Torn:
		return fmt.Sprintf("seq %d: torn %s %s line %#x at byte %d", ev.Seq, ev.Kind, ev.RID, uint64(ev.Line), ev.TearAt)
	case Drop:
		return fmt.Sprintf("seq %d: dropped %s %s line %#x", ev.Seq, ev.Kind, ev.RID, uint64(ev.Line))
	case Reorder:
		return fmt.Sprintf("seq %d: reordered channel %d flush", ev.Seq, ev.Channel)
	case BitFlip:
		return fmt.Sprintf("seq %d: bit %d flipped in line %#x", ev.Seq, ev.Bit, uint64(ev.Line))
	case HeaderDrop:
		return fmt.Sprintf("seq %d: LH-WPQ header of %s at line %#x lost", ev.Seq, ev.RID, uint64(ev.Line))
	}
	return fmt.Sprintf("seq %d: %s", ev.Seq, ev.Class)
}

// Injector implements memdev.FaultInjector with seeded deterministic
// decisions. In record mode (New) faults are drawn from the mix; in replay
// mode (Replay) exactly the supplied events fire and the PRNG is unused.
type Injector struct {
	mix    Mix
	rng    *rand.Rand
	scope  map[arch.RID]bool
	replay map[int]Event // nil = record mode
	seq    int
	events []Event
}

var _ memdev.FaultInjector = (*Injector)(nil)
var _ memdev.HeaderFaultInjector = (*Injector)(nil)

// New returns a recording injector drawing faults from mix.
func New(seed int64, mix Mix) *Injector {
	return &Injector{mix: mix, rng: rand.New(rand.NewSource(seed))}
}

// Replay returns an injector that inflicts exactly the given events (by
// decision sequence number) and nothing else.
func Replay(events []Event) *Injector {
	in := &Injector{replay: make(map[int]Event, len(events))}
	for _, ev := range events {
		in.replay[ev.Seq] = ev
	}
	return in
}

// SetScope restricts torn/drop/reorder decisions to entries belonging to
// the given regions. The crash harness passes the uncommitted set, so
// injected damage is confined to state recovery is responsible for —
// committed regions' durable data is covered by a different guarantee
// (media redundancy) than crash consistency.
func (in *Injector) SetScope(rids []arch.RID) {
	in.scope = make(map[arch.RID]bool, len(rids))
	for _, r := range rids {
		in.scope[r] = true
	}
}

// Events returns the faults injected so far, in decision order. Replay
// injectors record the events they actually applied, so a replayed run's
// Events mirrors the inflicted subset.
func (in *Injector) Events() []Event { return append([]Event(nil), in.events...) }

// eligible reports whether torn/drop may target e under scope.
func (in *Injector) eligible(e *memdev.Entry) bool {
	return in.scope == nil || in.scope[e.RID]
}

// FlushOrder implements memdev.FaultInjector: with probability ReorderPct
// the relative flush order of in-scope entries on this channel reverses
// (maximal disorder), leaving out-of-scope entries in place.
func (in *Injector) FlushOrder(channel int, entries []*memdev.Entry) []int {
	seq := in.seq
	in.seq++
	fire := false
	if in.replay != nil {
		ev, ok := in.replay[seq]
		fire = ok && ev.Class == Reorder
	} else if in.mix.ReorderPct > 0 && len(entries) > 1 {
		fire = in.rng.Float64() < in.mix.ReorderPct
	}
	if !fire {
		return nil
	}
	order := make([]int, len(entries))
	var scoped []int
	for i, e := range entries {
		order[i] = i
		if in.scope == nil || in.scope[e.RID] {
			scoped = append(scoped, i)
		}
	}
	for i, j := 0, len(scoped)-1; i < j; i, j = i+1, j-1 {
		order[scoped[i]], order[scoped[j]] = order[scoped[j]], order[scoped[i]]
	}
	in.events = append(in.events, Event{Seq: seq, Class: Reorder, Channel: channel})
	return order
}

// FlushPayload implements memdev.FaultInjector: each in-scope entry may be
// dropped or torn. A torn write persists the first TearAt bytes of the new
// payload over the line's current media content — the partial-line model
// of in-cache-line-logging studies.
func (in *Injector) FlushPayload(channel int, e *memdev.Entry, current []byte) ([]byte, bool) {
	seq := in.seq
	in.seq++
	if in.replay != nil {
		ev, ok := in.replay[seq]
		if !ok {
			return e.Payload, true
		}
		switch ev.Class {
		case Drop:
			in.events = append(in.events, ev)
			return nil, false
		case Torn:
			in.events = append(in.events, ev)
			return tear(e.Payload, current, ev.TearAt), true
		}
		return e.Payload, true
	}
	if !in.eligible(e) {
		return e.Payload, true
	}
	roll := in.rng.Float64()
	ev := Event{Seq: seq, Channel: channel, Kind: e.Kind.String(), RID: e.RID, Line: e.Dst}
	switch {
	case roll < in.mix.DropPct:
		ev.Class = Drop
		in.events = append(in.events, ev)
		return nil, false
	case roll < in.mix.DropPct+in.mix.TornPct:
		ev.Class = Torn
		ev.TearAt = 1 + in.rng.Intn(int(arch.LineSize)-1)
		in.events = append(in.events, ev)
		return tear(e.Payload, current, ev.TearAt), true
	}
	return e.Payload, true
}

// CrashHeader implements memdev.HeaderFaultInjector: with probability
// LHDropPct an in-scope resident LH-WPQ header is lost from the crash
// snapshot. Recovery must notice the missing header (a live record slot
// with no usable header), never silently accept the state.
func (in *Injector) CrashHeader(channel int, h *memdev.LogHeader) bool {
	seq := in.seq
	in.seq++
	if in.replay != nil {
		ev, ok := in.replay[seq]
		if ok && ev.Class == HeaderDrop {
			in.events = append(in.events, ev)
			return false
		}
		return true
	}
	if in.mix.LHDropPct == 0 {
		return true
	}
	if in.scope != nil && !in.scope[h.RID] {
		return true
	}
	if in.rng.Float64() >= in.mix.LHDropPct {
		return true
	}
	in.events = append(in.events, Event{
		Seq: seq, Class: HeaderDrop, Channel: channel,
		Kind: "LogHeader", RID: h.RID, Line: h.HeaderAddr,
	})
	return false
}

// tear builds the media content of a write torn after n bytes: the new
// payload's prefix over the line's previous content.
func tear(payload, current []byte, n int) []byte {
	out := make([]byte, arch.LineSize)
	copy(out, current)
	if n > len(payload) {
		n = len(payload)
	}
	copy(out[:n], payload[:n])
	return out
}

// Range is a byte extent of persistent memory (a thread's log buffer).
type Range struct {
	Base, Size uint64
}

// Contains reports whether line falls inside the range.
func (r Range) Contains(line arch.LineAddr) bool {
	return uint64(line) >= r.Base && uint64(line) < r.Base+r.Size
}

// FlipBits injects the mix's bit-flip media errors into the crash image,
// choosing among persisted lines inside the given ranges (the harness
// passes the log extents, modelling media decay in the log region that
// checksums must catch). Candidate lines are visited in sorted order so
// the same seed always damages the same bits.
func (in *Injector) FlipBits(img *memdev.Image, ranges []Range) {
	if in.replay != nil {
		// Replay: apply exactly the recorded flips.
		seqs := make([]int, 0, len(in.replay))
		for seq, ev := range in.replay {
			if ev.Class == BitFlip {
				seqs = append(seqs, seq)
			}
		}
		sort.Ints(seqs)
		for _, seq := range seqs {
			flipBit(img, in.replay[seq].Line, in.replay[seq].Bit)
			in.events = append(in.events, in.replay[seq])
		}
		return
	}
	if in.mix.BitFlips == 0 {
		return
	}
	var candidates []arch.LineAddr
	img.Lines(func(line arch.LineAddr, _ []byte) {
		for _, r := range ranges {
			if r.Contains(line) {
				candidates = append(candidates, line)
				return
			}
		}
	})
	if len(candidates) == 0 {
		return
	}
	sort.Slice(candidates, func(i, j int) bool { return candidates[i] < candidates[j] })
	for i := 0; i < in.mix.BitFlips; i++ {
		seq := in.seq
		in.seq++
		line := candidates[in.rng.Intn(len(candidates))]
		bit := in.rng.Intn(int(arch.LineSize) * 8)
		flipBit(img, line, bit)
		in.events = append(in.events, Event{Seq: seq, Class: BitFlip, Line: line, Bit: bit})
	}
}

func flipBit(img *memdev.Image, line arch.LineAddr, bit int) {
	buf := img.Read(line)
	buf[bit/8] ^= 1 << (bit % 8)
	img.Write(line, buf)
}
