package schemes

import (
	"asap/internal/arch"
	"asap/internal/cache"
	"asap/internal/machine"
	"asap/internal/obs"
	"asap/internal/sim"
	"asap/internal/wal"
)

// redoThread is one thread's hardware-redo-logging state.
type redoThread struct {
	nesting
	redoLog
	local uint64
}

// HWRedo is the state-of-the-art hardware redo-logging baseline (§6.3,
// after Jeong et al.): stores are logged at word granularity into packed
// redo log lines, the region commits synchronously once all its LPOs (log
// line writes) and its commit record have persisted, and the DPOs — the
// in-place data writes — happen after commit, asynchronously, with stale
// queued DPOs filtered out when a newer DPO for the same line is issued.
//
// Data lines modified by an uncommitted region must not reach PM in place;
// if one is evicted, later reads are redirected to the log at a penalty.
type HWRedo struct {
	redoWriter
	threads map[int]*redoThread

	// owned maps a line to the uncommitted region that modified it, for
	// eviction suppression and read redirection.
	owned map[arch.LineAddr]arch.RID
}

// NewHWRedo builds the hardware redo-logging baseline on m.
func NewHWRedo(m *machine.Machine) *HWRedo {
	s := &HWRedo{
		redoWriter: newRedoWriter(m),
		threads:    make(map[int]*redoThread),
		owned:      make(map[arch.LineAddr]arch.RID),
	}
	m.Caches.SetEvictHook(s.onEvict)
	return s
}

// Name implements machine.Scheme.
func (s *HWRedo) Name() string { return "HWRedo" }

// InitThread implements machine.Scheme.
func (s *HWRedo) InitThread(t *sim.Thread) {
	s.threads[t.ID()] = &redoThread{redoLog: redoLog{
		logCursor: logCursor{log: wal.NewThreadLog(s.m.Heap, logBytes)},
		dirty:     make(map[arch.LineAddr]bool),
	}}
	t.Advance(200)
}

func (s *HWRedo) state(t *sim.Thread) *redoThread { return s.threads[t.ID()] }

// Begin implements machine.Scheme.
func (s *HWRedo) Begin(t *sim.Thread) {
	ts := s.state(t)
	if !s.begin(t, &ts.nesting) {
		return
	}
	ts.local++
	ts.rid = arch.MakeRID(t.ID(), ts.local)
	ts.dirty = make(map[arch.LineAddr]bool)
	ts.words = 0
	t.Advance(4)
}

// End implements machine.Scheme: synchronous commit on the log side. The
// partial log line flushes, every log write must be accepted, and the
// commit record persists — only then may execution proceed. The DPOs
// follow asynchronously.
func (s *HWRedo) End(t *sim.Thread) {
	ts := s.state(t)
	if !s.end(t, &ts.nesting) {
		return
	}
	s.flushPartial(t, &ts.redoLog)
	s.prof.Wait(t, obs.FenceWait, func() bool { return ts.pendingLogs == 0 })
	if len(ts.dirty) > 0 {
		ts.pendingLogs++
		s.mark(t, &ts.redoLog, func(uint64) { ts.pendingLogs-- })
		s.prof.Wait(t, obs.FenceWait, func() bool { return ts.pendingLogs == 0 })
	}

	// Committed: the in-place DPOs go out asynchronously.
	rid := ts.rid
	s.writeBack(&ts.redoLog, func(line arch.LineAddr) {
		if s.owned[line] == rid {
			delete(s.owned, line)
		}
	})
	ts.logEnd.Free(ts.log)
	ts.rec = 0
	t.Advance(4)
	s.account(t, &ts.nesting, true)
}

// Store implements machine.Scheme: every persistent word written inside a
// region is appended to the packed redo log.
func (s *HWRedo) Store(t *sim.Thread, addr uint64, data []byte) {
	ts := s.state(t)
	s.m.Store(t, addr, data, func(line arch.LineAddr, _ *cache.Meta) {
		if ts.nest > 0 {
			ts.dirty[line] = true
			s.owned[line] = ts.rid
		}
	}, func() {
		if ts.nest > 0 {
			s.pack(t, &ts.redoLog, addr, len(data))
		}
	})
}

// onEvict suppresses in-place writeback of lines modified by uncommitted
// regions: their new values exist only in the log until commit, so reads
// redirect there instead.
func (s *HWRedo) onEvict(info cache.EvictInfo) {
	if rid, ok := s.owned[info.Line]; ok && rid != arch.NoRID {
		s.redirect[info.Line] = true
		return
	}
	s.evictWriteback(info)
}
