package cache

import (
	"math/bits"
	"sync"

	"asap/internal/arch"
)

// level is one cache array (an L1, an L2, or the shared L3), stored
// struct-of-arrays for scan speed: the associative tag match touches only
// the packed tags array (16 ways = two cache lines instead of the eight an
// array-of-slots layout costs), and the set index is a mask, not a modulo.
//
// Slots are named by index si = set*ways + way. A slot's validity is
// encoded in its tag: tag 0 is invalid, a valid slot holds line|1 (line
// addresses have their low LineShift bits clear, so every valid tag is odd
// and line 0 is representable).
type level struct {
	cfg     LevelConfig
	setMask uint64 // sets-1; sets is a power of two
	ways    int
	tags    []uint64 // sets*ways packed tags: 0 = invalid, else line|1
	dirty   []bool
	lastUse []uint64
	meta    []*Meta // per-slot metadata: the victim scan's pinned check
	clock   uint64  // LRU timestamp source
	// used has one bit per set that ever had an install: every slot
	// outside those sets is still zero, so reset clears only these.
	used []uint64
}

// ceilPow2 rounds n up to the next power of two (minimum 1).
func ceilPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

func newLevel(cfg LevelConfig) *level {
	// Power-of-two sets let setOf mask instead of divide. Non-power-of-two
	// Sets configs are rounded up (documented in LevelConfig); every config
	// in the repo and in Table 2 is already a power of two, for which this
	// is the identity.
	sets := ceilPow2(cfg.Sets)
	cfg.Sets = sets
	n := sets * cfg.Ways
	return &level{
		cfg:     cfg,
		setMask: uint64(sets - 1),
		ways:    cfg.Ways,
		tags:    make([]uint64, n),
		dirty:   make([]bool, n),
		lastUse: make([]uint64, n),
		meta:    make([]*Meta, n),
		used:    make([]uint64, (sets+63)/64),
	}
}

// reset returns l to the state newLevel builds, in time proportional to
// the sets it used.
func (l *level) reset() {
	for w, word := range l.used {
		for ; word != 0; word &= word - 1 {
			lo := (w<<6 + bits.TrailingZeros64(word)) * l.ways
			hi := lo + l.ways
			clear(l.tags[lo:hi])
			clear(l.dirty[lo:hi])
			clear(l.lastUse[lo:hi])
			clear(l.meta[lo:hi])
		}
		l.used[w] = 0
	}
	l.clock = 0
}

// levelPool holds reset levels for reuse, keyed by their (rounded)
// configuration. A level enters it only through putLevel, so it never
// holds more levels than were once live at the same time.
var levelPool = struct {
	sync.Mutex
	free map[LevelConfig][]*level
}{free: make(map[LevelConfig][]*level)}

// getLevel returns a zeroed level for cfg: a pooled one if there is one,
// otherwise a new one.
func getLevel(cfg LevelConfig) *level {
	cfg.Sets = ceilPow2(cfg.Sets)
	levelPool.Lock()
	free := levelPool.free[cfg]
	var l *level
	if n := len(free); n > 0 {
		l = free[n-1]
		free[n-1] = nil
		levelPool.free[cfg] = free[:n-1]
	}
	levelPool.Unlock()
	if l == nil {
		l = newLevel(cfg)
	}
	return l
}

// putLevel resets l and pools it. The caller must hold no other reference.
func putLevel(l *level) {
	l.reset()
	levelPool.Lock()
	levelPool.free[l.cfg] = append(levelPool.free[l.cfg], l)
	levelPool.Unlock()
}

// setBase returns the first slot index of line's set.
func (l *level) setBase(line arch.LineAddr) int {
	return int(uint64(line)>>arch.LineShift&l.setMask) * l.ways
}

// lookup returns the slot index holding line, or -1. The scan reads only
// the packed tags of one set.
func (l *level) lookup(line arch.LineAddr) int {
	base := l.setBase(line)
	tag := uint64(line) | 1
	for i, t := range l.tags[base : base+l.ways] {
		if t == tag {
			return base + i
		}
	}
	return -1
}

func (l *level) touch(si int) {
	l.clock++
	l.lastUse[si] = l.clock
}

// victim picks the fill target in line's set: the first invalid way if
// any, otherwise the LRU way among those whose lines are not pinned
// (LockBit). Returns -1 if every way is pinned — the caller must stall.
// The pinned check reads the slot's own Meta pointer; no table probe.
func (l *level) victim(line arch.LineAddr) int {
	base := l.setBase(line)
	lru := -1
	for i := 0; i < l.ways; i++ {
		si := base + i
		if l.tags[si] == 0 {
			return si
		}
		if l.meta[si].Locks > 0 {
			continue
		}
		if lru < 0 || l.lastUse[si] < l.lastUse[lru] {
			lru = si
		}
	}
	return lru
}

// lineOf returns the line held by a valid slot.
func (l *level) lineOf(si int) arch.LineAddr {
	return arch.LineAddr(l.tags[si] &^ 1)
}

// invalidate drops line from the level, returning whether it was present
// and whether it was dirty.
func (l *level) invalidate(line arch.LineAddr) (present, dirty bool) {
	if si := l.lookup(line); si >= 0 {
		l.tags[si] = 0
		l.meta[si] = nil
		return true, l.dirty[si]
	}
	return false, false
}

// install places line into the given slot (already chosen by victim).
func (l *level) install(si int, line arch.LineAddr, m *Meta, dirty bool) {
	set := uint64(line) >> arch.LineShift & l.setMask
	l.used[set>>6] |= 1 << (set & 63)
	l.tags[si] = uint64(line) | 1
	l.meta[si] = m
	l.dirty[si] = dirty
	l.touch(si)
}
