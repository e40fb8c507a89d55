// Package recovery implements ASAP's crash recovery (§5.5): from the
// flushed persistence-domain state (PM image, LH-WPQ headers, Dependence
// List entries) it reconstructs the set of uncommitted atomic regions,
// orders them by the dependence DAG, and undoes them newest-first so the
// persisted image returns to a consistent prefix of the execution.
//
// Recovery validates the image before repairing it. Every live log record
// — allocated but not freed at the crash, bounded by the LogHead/LogTail
// registers — must contribute intact undo material: a header line that
// parses with a good CRC (or LH-WPQ coverage for still-open records), and
// data entries matching the CRCs captured at WPQ acceptance. Damage to
// live undo material is fatal (the image cannot be proven repairable) and
// is reported as a CorruptionError; corrupt bytes outside the live window
// are provably stale leftovers of committed regions and are discarded.
package recovery

import (
	"errors"
	"fmt"
	"sort"

	"asap/internal/arch"
	"asap/internal/core"
	"asap/internal/memdev"
	"asap/internal/wal"
)

// Class names one kind of corruption recovery can diagnose.
type Class string

// The corruption classes.
const (
	// ClassTornHeader: a live record's header line is present but fails
	// validation — a torn header persist or a media error.
	ClassTornHeader Class = "torn-header"
	// ClassMissingHeader: a live record slot has no usable header — the
	// header write never reached media (or a committed region's stale
	// header sits where the live record's header must be).
	ClassMissingHeader Class = "missing-header"
	// ClassTornEntry: a record's data entries fail their checksum.
	ClassTornEntry Class = "torn-entry"
	// ClassMissingEntry: a log entry listed by a header (or accepted into
	// the LH-WPQ) is absent from the image.
	ClassMissingEntry Class = "missing-entry"
	// ClassStaleCorrupt: a corrupt header-like line outside the live
	// window — provably freed, safely discarded.
	ClassStaleCorrupt Class = "stale-corrupt"
)

// Severity says whether a corruption blocks recovery.
type Severity int

// The severities.
const (
	// SeverityDiscardable: the damaged bytes belong to a provably
	// committed (freed) region; recovery ignores them.
	SeverityDiscardable Severity = iota
	// SeverityFatal: undo material for an uncommitted region is damaged
	// or lost; the image cannot be proven repairable.
	SeverityFatal
)

func (s Severity) String() string {
	if s == SeverityFatal {
		return "fatal"
	}
	return "discardable"
}

// Corruption is one diagnosed defect in the crash image.
type Corruption struct {
	Class    Class
	Severity Severity
	// Line is the damaged PM line (a header line or log entry line).
	Line arch.LineAddr
	// RID is the owning region when it could be determined.
	RID arch.RID
	// Reason is a human-readable diagnosis.
	Reason string
}

func (c Corruption) String() string {
	s := fmt.Sprintf("%s (%s) at line %#x", c.Class, c.Severity, uint64(c.Line))
	if c.RID != arch.NoRID {
		s += " region " + c.RID.String()
	}
	if c.Reason != "" {
		s += ": " + c.Reason
	}
	return s
}

// CorruptionError reports fatal corruption: recovery refused to repair the
// image because undo material for uncommitted regions is damaged or lost.
type CorruptionError struct {
	Fatal []Corruption
}

func (e *CorruptionError) Error() string {
	if len(e.Fatal) == 1 {
		return "recovery: unrecoverable corruption: " + e.Fatal[0].String()
	}
	return fmt.Sprintf("recovery: unrecoverable corruption (%d findings, first: %s)",
		len(e.Fatal), e.Fatal[0].String())
}

// Options tunes a recovery run.
type Options struct {
	// SkipValidation disables the integrity pass: headers are decoded
	// with the pre-checksum legacy rules and damaged or missing material
	// is silently skipped. This deliberately resurrects the unhardened
	// recovery so the crash-consistency checker can demonstrate that it
	// catches the resulting inconsistencies. Never set it in real use.
	SkipValidation bool
}

// regionLog is the undo material collected for one uncommitted region.
type regionLog struct {
	rid     arch.RID
	entries []undoEntry
}

type undoEntry struct {
	dataLine arch.LineAddr
	logLine  arch.LineAddr
}

// Report summarizes a completed recovery.
type Report struct {
	// Uncommitted is the set of regions found in the Dependence List,
	// in the order they were undone (reverse happens-before).
	Uncommitted []arch.RID
	// EntriesRestored counts undo entries applied to the image.
	EntriesRestored int
	// RecordsScanned counts valid log record headers found in the image.
	RecordsScanned int
	// LiveRecords counts record slots allocated but not freed at the
	// crash — the slots validation holds to the intact-undo obligation.
	LiveRecords int
	// Discarded lists corrupt lines classified as stale leftovers of
	// committed regions and ignored.
	Discarded []Corruption
}

// RecoverWithOptions repairs the crash state in place: cs.Image is
// modified so that every uncommitted region's writes are rolled back. The
// zero Options validate fully. It never panics: a malformed crash state
// yields an error, and fatal image corruption yields a *CorruptionError, in
// both cases before the image has been modified.
func RecoverWithOptions(cs *core.CrashState, opt Options) (rep *Report, err error) {
	defer func() {
		if p := recover(); p != nil {
			rep, err = nil, fmt.Errorf("recovery: internal error: %v", p)
		}
	}()
	if verr := cs.Validate(); verr != nil {
		return nil, fmt.Errorf("recovery: malformed crash state: %w", verr)
	}

	rep = &Report{}
	uncommitted := make(map[arch.RID]bool, len(cs.Deps))
	for _, d := range cs.Deps {
		uncommitted[d.RID] = true
	}

	var logs map[arch.RID]*regionLog
	if opt.SkipValidation {
		logs = collectLegacy(cs, uncommitted, rep)
	} else {
		var cerr *CorruptionError
		logs, cerr = collectValidated(cs, uncommitted, rep)
		if cerr != nil {
			return nil, cerr
		}
	}
	if len(uncommitted) == 0 {
		return rep, nil
	}

	order, err := happensBefore(cs.Deps)
	if err != nil {
		return nil, err
	}

	// Undo in reverse happens-before order: the newest region first, so a
	// line written by several uncommitted regions ends at the oldest
	// region's logged old value.
	for i := len(order) - 1; i >= 0; i-- {
		rid := order[i]
		rep.Uncommitted = append(rep.Uncommitted, rid)
		rl, ok := logs[rid]
		if !ok {
			continue // region logged nothing (read-only or no accepted LPOs)
		}
		for _, ent := range rl.entries {
			cs.Image.Write(ent.dataLine, cs.Image.Read(ent.logLine))
			rep.EntriesRestored++
		}
	}
	return rep, nil
}

// collectValidated gathers undo material and validates the image in one
// pass, before anything is written back. Undo comes from two sources: full
// records persisted in the image (header lines at record-aligned slots in
// the log buffers) and partial records flushed from the LH-WPQ. Validation
// holds every live record slot to the intact-undo obligation and verifies
// the checksums captured at WPQ acceptance.
func collectValidated(cs *core.CrashState, uncommitted map[arch.RID]bool, rep *Report) (map[arch.RID]*regionLog, *CorruptionError) {
	logs := make(map[arch.RID]*regionLog)
	var fatal []Corruption
	add := func(rid arch.RID, data, log arch.LineAddr) {
		rl := logs[rid]
		if rl == nil {
			rl = &regionLog{rid: rid}
			logs[rid] = rl
		}
		rl.entries = append(rl.entries, undoEntry{dataLine: data, logLine: log})
	}

	// Partial records flushed from the LH-WPQ: only accepted entries are
	// listed, so each listed log line must have reached the image and
	// must match the CRC captured at acceptance. A committed region's
	// leftover closing header covers nothing — its slot may already have
	// been reallocated to a record that must restore from the image.
	covered := make(map[arch.LineAddr]*memdev.LogHeader, len(cs.Headers))
	for _, h := range cs.Headers {
		if !uncommitted[h.RID] {
			continue
		}
		covered[h.HeaderAddr] = h
		for i, dl := range h.DataLines {
			ll := h.LogLines[i]
			if !cs.Image.Has(ll) {
				fatal = append(fatal, Corruption{
					Class: ClassMissingEntry, Severity: SeverityFatal, Line: ll, RID: h.RID,
					Reason: "accepted log entry never reached media",
				})
				continue
			}
			if i < len(h.EntryCRCs) && wal.Checksum(cs.Image.Read(ll)) != h.EntryCRCs[i] {
				fatal = append(fatal, Corruption{
					Class: ClassTornEntry, Severity: SeverityFatal, Line: ll, RID: h.RID,
					Reason: "log entry does not match the checksum captured at WPQ acceptance",
				})
				continue
			}
			add(h.RID, dl, ll)
		}
	}

	// Scan every thread's log buffer at record granularity. Live slots
	// (allocated, not freed) must hold intact undo material; corruption
	// anywhere else is provably stale.
	for _, ext := range cs.Logs {
		live := make(map[arch.LineAddr]bool)
		for _, slot := range wal.LiveRecordSlots(ext.Base, ext.Size, ext.Head, ext.Tail) {
			live[slot] = true
		}
		rep.LiveRecords += len(live)
		for off := uint64(0); off+wal.RecordBytes <= ext.Size; off += wal.RecordBytes {
			slot := arch.LineAddr(ext.Base + off)
			if covered[slot] != nil {
				// The record is still open (or closing) in the LH-WPQ:
				// undo comes from there; any header bytes at the slot
				// are a stale leftover.
				continue
			}
			isLive := live[slot]
			if !cs.Image.Has(slot) {
				if isLive {
					fatal = append(fatal, Corruption{
						Class: ClassMissingHeader, Severity: SeverityFatal, Line: slot,
						RID: arch.NoRID, Reason: "live record slot holds no header",
					})
				}
				continue
			}
			h, perr := wal.ParseHeader(cs.Image.Read(slot))
			if perr != nil {
				switch {
				case isLive:
					fatal = append(fatal, Corruption{
						Class: ClassTornHeader, Severity: SeverityFatal, Line: slot,
						RID: arch.NoRID, Reason: "live record header invalid: " + perr.Error(),
					})
				case !errors.Is(perr, wal.ErrNotHeader):
					// Header-like garbage in freed space: note and move on.
					rep.Discarded = append(rep.Discarded, Corruption{
						Class: ClassStaleCorrupt, Severity: SeverityDiscardable, Line: slot,
						RID: arch.NoRID, Reason: "corrupt header bytes in freed log space: " + perr.Error(),
					})
				}
				continue
			}
			rep.RecordsScanned++
			if !uncommitted[h.RID] {
				if isLive {
					// A freed region's stale header sits where a live
					// record's header must be: the live header write was
					// lost.
					fatal = append(fatal, Corruption{
						Class: ClassMissingHeader, Severity: SeverityFatal, Line: slot, RID: h.RID,
						Reason: "live record slot holds a committed region's stale header",
					})
				}
				continue
			}
			// Valid header of an uncommitted region: its entries must be
			// present and match the record's combined payload checksum.
			damaged := false
			crc := uint32(0)
			for i := range h.DataLines {
				ll := wal.EntryLine(slot, i)
				if !cs.Image.Has(ll) {
					fatal = append(fatal, Corruption{
						Class: ClassMissingEntry, Severity: SeverityFatal, Line: ll, RID: h.RID,
						Reason: "log entry listed by a persisted header never reached media",
					})
					damaged = true
					break
				}
				crc = wal.ChecksumUpdate(crc, cs.Image.Read(ll))
			}
			if !damaged && h.HasPayloadCRC && crc != h.PayloadCRC {
				fatal = append(fatal, Corruption{
					Class: ClassTornEntry, Severity: SeverityFatal, Line: slot, RID: h.RID,
					Reason: "record payload does not match the header's checksum",
				})
				damaged = true
			}
			if damaged {
				continue
			}
			for i, dl := range h.DataLines {
				add(h.RID, dl, wal.EntryLine(slot, i))
			}
		}
	}

	if len(fatal) > 0 {
		sort.Slice(fatal, func(i, j int) bool { return fatal[i].Line < fatal[j].Line })
		return nil, &CorruptionError{Fatal: fatal}
	}
	return logs, nil
}

// collectLegacy is the unhardened collector (pre-checksum decode, silent
// skips) kept behind Options.SkipValidation for the checker's
// broken-recovery demonstration.
func collectLegacy(cs *core.CrashState, uncommitted map[arch.RID]bool, rep *Report) map[arch.RID]*regionLog {
	logs := make(map[arch.RID]*regionLog)
	add := func(rid arch.RID, data, log arch.LineAddr) {
		rl := logs[rid]
		if rl == nil {
			rl = &regionLog{rid: rid}
			logs[rid] = rl
		}
		rl.entries = append(rl.entries, undoEntry{dataLine: data, logLine: log})
	}

	for _, ext := range cs.Logs {
		for off := uint64(0); off+arch.LineSize <= ext.Size; off += arch.LineSize {
			line := arch.LineAddr(ext.Base + off)
			if !cs.Image.Has(line) {
				continue
			}
			rid, dataLines, ok := wal.DecodeHeaderLegacy(cs.Image.Read(line))
			if !ok {
				continue
			}
			rep.RecordsScanned++
			if !uncommitted[rid] {
				continue // stale header of a committed region
			}
			for i, dl := range dataLines {
				logLine := wal.EntryLine(line, i)
				if cs.Image.Has(logLine) {
					add(rid, dl, logLine)
				}
			}
		}
	}

	for _, h := range cs.Headers {
		if !uncommitted[h.RID] {
			continue
		}
		for i, dl := range h.DataLines {
			if cs.Image.Has(h.LogLines[i]) {
				add(h.RID, dl, h.LogLines[i])
			}
		}
	}
	return logs
}

// happensBefore topologically sorts the uncommitted regions so that for
// every dependence edge A -> B (B depends on A), A precedes B. Edges to
// committed regions are ignored (their data is durable).
func happensBefore(deps []core.DepSnapshot) ([]arch.RID, error) {
	present := make(map[arch.RID]bool, len(deps))
	for _, d := range deps {
		present[d.RID] = true
	}
	indeg := make(map[arch.RID]int, len(deps))
	succ := make(map[arch.RID][]arch.RID)
	for _, d := range deps {
		if _, ok := indeg[d.RID]; !ok {
			indeg[d.RID] = 0
		}
		for _, dep := range d.Deps {
			if !present[dep] {
				continue
			}
			succ[dep] = append(succ[dep], d.RID)
			indeg[d.RID]++
		}
	}

	ready := make([]arch.RID, 0, len(indeg))
	for rid, n := range indeg {
		if n == 0 {
			ready = append(ready, rid)
		}
	}
	sort.Slice(ready, func(i, j int) bool { return ready[i] < ready[j] })

	var order []arch.RID
	for len(ready) > 0 {
		rid := ready[0]
		ready = ready[1:]
		order = append(order, rid)
		next := succ[rid]
		sort.Slice(next, func(i, j int) bool { return next[i] < next[j] })
		for _, s := range next {
			indeg[s]--
			if indeg[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	if len(order) != len(indeg) {
		return nil, fmt.Errorf("recovery: dependence cycle among %d uncommitted regions", len(indeg)-len(order))
	}
	return order, nil
}
