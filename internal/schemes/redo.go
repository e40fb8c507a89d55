package schemes

import (
	"asap/internal/arch"
	"asap/internal/cache"
	"asap/internal/machine"
	"asap/internal/memdev"
	"asap/internal/obs"
	"asap/internal/sim"
	"asap/internal/wal"
)

// redoLog is one region's packed redo log: the words buffered toward the
// next log line, the log writes and DPOs in flight, and the lines the
// region dirtied. HWRedo reuses one per thread.
type redoLog struct {
	logCursor
	rid         arch.RID
	dirty       map[arch.LineAddr]bool
	words       int // redo words buffered toward the next log-line write
	pendingLogs int // log-line writes not yet accepted
	pendingDPOs int
}

// redoWriter is what HWRedo and ASAP-Redo share: word-packed log lines,
// the commit marker, commit-time DPOs, and reads redirected to the log
// for lines evicted before their region committed.
type redoWriter struct {
	base
	// redirect holds evicted-while-uncommitted lines whose reads must go
	// to the log.
	redirect map[arch.LineAddr]bool
	// logged, when set, runs each time one of a region's log lines is
	// accepted.
	logged func(*redoLog)
	// freeAfterDPOs frees a region's log once its DPOs are accepted
	// (ASAP-Redo) rather than leaving the free to the scheme (HWRedo).
	freeAfterDPOs bool
}

func newRedoWriter(m *machine.Machine) redoWriter {
	return redoWriter{base: base{m: m}, redirect: make(map[arch.LineAddr]bool)}
}

// Load implements machine.Scheme, charging the log-redirection penalty.
func (w *redoWriter) Load(t *sim.Thread, addr uint64, buf []byte) { w.load(t, addr, buf, nil) }

// load charges each line's access plus the log-redirection penalty for
// lines whose in-cache copy was evicted before commit (§2.3), calling dep
// (when set) with each persistent line's metadata.
func (w *redoWriter) load(t *sim.Thread, addr uint64, buf []byte, dep func(*cache.Meta)) {
	core := w.m.CoreOf(t)
	machine.VisitLines(addr, len(buf), func(line arch.LineAddr) {
		lat, meta := w.m.Caches.AccessBlocking(t, core, line, false)
		if w.redirect[line] {
			lat += redirectPenalty
		}
		t.Advance(lat)
		if dep != nil && w.m.Heap.IsPersistentLine(line) {
			dep(meta)
		}
	})
	w.m.Heap.Read(addr, buf)
}

// pack appends the words of a size-byte store at addr to l when addr is
// persistent; a log line flushes (one LPO) per eight words.
func (w *redoWriter) pack(t *sim.Thread, l *redoLog, addr uint64, size int) {
	if !w.m.Heap.IsPersistentAddr(addr) {
		return
	}
	l.words += (size + 7) / 8
	for l.words >= 8 {
		l.words -= 8
		w.prof.Wait(t, obs.WPQFull, func() bool { return l.pendingLogs < window })
		w.flushLine(t, l)
	}
}

// flushPartial flushes l's partly filled log line, if any.
func (w *redoWriter) flushPartial(t *sim.Thread, l *redoLog) {
	if l.words > 0 {
		l.words = 0
		w.flushLine(t, l)
	}
}

// flushLine sends one packed redo log line toward the WPQ.
func (w *redoWriter) flushLine(t *sim.Thread, l *redoLog) {
	logLine := w.nextEntry(t, &l.logCursor)
	l.pendingLogs++
	*w.m.Cells.LPOsIssued++
	e := w.m.Fabric.NewEntry(memdev.KindLPO, l.rid, logLine, logLine)
	e.SetPayload(nil) // packed new-value words, modeled as zeros
	w.m.Fabric.SubmitPersist(e, func(uint64) {
		l.pendingLogs--
		if w.logged != nil {
			w.logged(l)
		}
	})
}

// mark persists l's commit marker, the record header naming its first
// dirty lines: redo logging needs a durable marker before the log may be
// replayed. t is nil in event context.
func (w *redoWriter) mark(t *sim.Thread, l *redoLog, accepted func(uint64)) {
	if l.rec == 0 {
		w.openRecord(t, &l.logCursor)
	}
	hdr := w.m.Fabric.NewEntry(memdev.KindLogHeader, l.rid, l.rec, l.rec)
	hdr.SetPayload(wal.EncodeHeader(l.rid, firstLines(l.dirty)))
	w.m.Fabric.SubmitPersist(hdr, accepted)
}

// writeBack issues l's in-place DPOs at commit, in address order,
// superseding any still-queued DPO to the same line from an earlier
// region — the redo-side write filtering (§7.2). Each line's redirect
// ends, and release sees it.
func (w *redoWriter) writeBack(l *redoLog, release func(arch.LineAddr)) {
	for _, line := range sortedLines(l.dirty) {
		w.m.Fabric.SupersedeDPO(line)
		l.pendingDPOs++
		*w.m.Cells.DPOsIssued++
		e := w.m.Fabric.NewEntry(memdev.KindDPO, l.rid, line, line)
		w.m.Heap.ReadLineInto(line, e.Payload)
		w.m.Fabric.SubmitPersist(e, func(uint64) {
			l.pendingDPOs--
			w.m.Caches.MarkClean(line)
			if w.freeAfterDPOs && l.pendingDPOs == 0 {
				// Data in place: the redo log may be reclaimed.
				l.logEnd.Free(l.log)
			}
		})
		release(line)
		delete(w.redirect, line)
	}
}
