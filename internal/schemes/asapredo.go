package schemes

import (
	"sort"

	"asap/internal/arch"
	"asap/internal/cache"
	"asap/internal/machine"
	"asap/internal/obs"
	"asap/internal/sim"
	"asap/internal/wal"
)

// redoARegion is one atomic region's state under asynchronous-commit redo
// logging (the Figure 2c design).
type redoARegion struct {
	redoLog
	deps map[arch.RID]struct{}

	ended      bool // asap_end ran
	markerSent bool
	logDone    bool // all LPOs + commit marker accepted
	committed  bool
}

// redoAThread is one thread's state.
type redoAThread struct {
	nesting
	log   *wal.ThreadLog
	local uint64
	cur   *redoARegion
	last  *redoARegion
}

// ASAPRedo is the paper's suggested alternative design (§3): asynchronous
// commit applied to redo logging. Stores append new values to a packed
// redo log and update data in place in the cache; asap_end returns
// immediately. A region commits in the background once all its log writes
// and its commit marker have been accepted AND every region it depends on
// has committed — the Figure 2c rule, mirrored from ASAP's Dependence
// List. Only then do its DPOs (in-place data writes) go out, and the log
// is freed once they complete.
//
// Compared to undo-based ASAP, DPOs are less eager (they wait for commit)
// and evicted-dirty reads redirect to the log — exactly the §3 trade-off
// that made the authors choose undo logging.
type ASAPRedo struct {
	redoWriter
	threads map[int]*redoAThread
	regions map[arch.RID]*redoARegion
}

// NewASAPRedo builds the asynchronous-commit redo engine on m.
func NewASAPRedo(m *machine.Machine) *ASAPRedo {
	s := &ASAPRedo{
		redoWriter: newRedoWriter(m),
		threads:    make(map[int]*redoAThread),
		regions:    make(map[arch.RID]*redoARegion),
	}
	s.freeAfterDPOs = true
	// A log line is accepted only before its region's marker is sent, so
	// the region is still live.
	s.logged = func(l *redoLog) { s.maybeSendMarker(s.regions[l.rid]) }
	m.Caches.SetEvictHook(s.onEvict)
	return s
}

// Name implements machine.Scheme.
func (s *ASAPRedo) Name() string { return "ASAP-Redo" }

// InitThread implements machine.Scheme.
func (s *ASAPRedo) InitThread(t *sim.Thread) {
	s.threads[t.ID()] = &redoAThread{log: wal.NewThreadLog(s.m.Heap, logBytes)}
	t.Advance(200)
}

func (s *ASAPRedo) state(t *sim.Thread) *redoAThread { return s.threads[t.ID()] }

// Begin implements machine.Scheme: open a region, capturing the control
// dependence on the thread's previous region if it is still uncommitted.
func (s *ASAPRedo) Begin(t *sim.Thread) {
	ts := s.state(t)
	if !s.begin(t, &ts.nesting) {
		return
	}
	ts.local++
	r := &redoARegion{
		redoLog: redoLog{
			logCursor: logCursor{log: ts.log},
			rid:       arch.MakeRID(t.ID(), ts.local),
			dirty:     make(map[arch.LineAddr]bool),
		},
		deps: make(map[arch.RID]struct{}),
	}
	if prev := ts.last; prev != nil && !prev.committed {
		r.deps[prev.rid] = struct{}{}
	}
	s.regions[r.rid] = r
	ts.cur = r
	ts.last = r
	t.Advance(4)
}

// End implements machine.Scheme: flush the partial log line and return —
// the commit marker, the commit itself and the DPOs all happen in the
// background (asynchronous commit).
func (s *ASAPRedo) End(t *sim.Thread) {
	ts := s.state(t)
	if !s.end(t, &ts.nesting) {
		return
	}
	r := ts.cur
	ts.cur = nil
	s.flushPartial(t, &r.redoLog)
	r.ended = true
	s.maybeSendMarker(r)
	t.Advance(4)
	s.account(t, &ts.nesting, false)
}

// maybeSendMarker persists the commit marker once every log write has
// been accepted and the region has ended.
func (s *ASAPRedo) maybeSendMarker(r *redoARegion) {
	if !r.ended || r.markerSent || r.pendingLogs > 0 {
		return
	}
	r.markerSent = true
	if len(r.dirty) == 0 {
		// Read-only region: nothing to replay, commit directly.
		r.logDone = true
		s.maybeCommit(r)
		return
	}
	s.mark(nil, &r.redoLog, func(uint64) {
		r.logDone = true
		s.maybeCommit(r)
	})
}

// maybeCommit applies the Figure 2c rule: the region commits once its log
// (including the marker) is durable and every dependence has committed;
// only then do the in-place DPOs go out, and the log is freed once they
// complete.
func (s *ASAPRedo) maybeCommit(r *redoARegion) {
	if r.committed || !r.logDone || len(r.deps) > 0 {
		return
	}
	r.committed = true
	*s.m.Cells.RegionsCommitted++
	s.writeBack(&r.redoLog, func(line arch.LineAddr) {
		if meta := s.m.Caches.Table().Peek(line); meta != nil && meta.Owner == r.rid {
			meta.Owner = arch.NoRID
		}
	})
	delete(s.regions, r.rid)

	// Broadcast to dependents, in RID order for determinism.
	var rids []arch.RID
	for rid, other := range s.regions {
		if _, ok := other.deps[r.rid]; ok {
			rids = append(rids, rid)
		}
	}
	sort.Slice(rids, func(i, j int) bool { return rids[i] < rids[j] })
	for _, rid := range rids {
		if other := s.regions[rid]; other != nil {
			delete(other.deps, r.rid)
			s.maybeCommit(other)
		}
	}
}

// Fence implements machine.Scheme (§5.2): wait for the thread's latest
// region to commit.
func (s *ASAPRedo) Fence(t *sim.Thread) {
	ts := s.state(t)
	*s.m.Cells.Fences++
	if last := ts.last; last != nil {
		s.prof.Wait(t, obs.FenceWait, func() bool { return last.committed })
	}
}

// DrainBarrier implements machine.Scheme.
func (s *ASAPRedo) DrainBarrier(t *sim.Thread) {
	s.prof.Wait(t, obs.Drain, func() bool {
		return len(s.regions) == 0 && s.m.Fabric.Quiesced()
	})
}

// Load implements machine.Scheme with dependence capture and redirect
// penalties.
func (s *ASAPRedo) Load(t *sim.Thread, addr uint64, buf []byte) {
	ts := s.state(t)
	s.load(t, addr, buf, func(meta *cache.Meta) {
		if ts.cur != nil {
			s.captureDep(ts.cur, meta, false)
		}
	})
}

// Store implements machine.Scheme: direct update in cache, word-packed
// redo logging, dependence capture and ownership transfer.
func (s *ASAPRedo) Store(t *sim.Thread, addr uint64, data []byte) {
	ts := s.state(t)
	s.m.Store(t, addr, data, func(line arch.LineAddr, meta *cache.Meta) {
		if r := ts.cur; r != nil {
			s.captureDep(r, meta, true)
			r.dirty[line] = true
		}
	}, func() {
		if r := ts.cur; r != nil {
			s.pack(t, &r.redoLog, addr, len(data))
		}
	})
}

// captureDep records a data dependence through the line's OwnerRID tag,
// handed to it by the access that just touched the line.
func (s *ASAPRedo) captureDep(r *redoARegion, meta *cache.Meta, isWrite bool) {
	if owner := meta.Owner; owner != arch.NoRID && owner != r.rid {
		if _, active := s.regions[owner]; active {
			r.deps[owner] = struct{}{}
			*s.m.Cells.DepEdges++
		} else {
			meta.Owner = arch.NoRID
		}
	}
	if isWrite {
		meta.Owner = r.rid
	}
}

// onEvict suppresses in-place writeback of lines owned by uncommitted
// regions (their durable new values live only in the log).
func (s *ASAPRedo) onEvict(info cache.EvictInfo) {
	if owner := info.Meta.Owner; owner != arch.NoRID {
		if _, active := s.regions[owner]; active {
			s.redirect[info.Line] = true
			info.Meta.Owner = arch.NoRID
			return
		}
		info.Meta.Owner = arch.NoRID
	}
	s.evictWriteback(info)
}
