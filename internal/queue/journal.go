// Package queue is the durable work queue behind cmd/asapd: a
// CRC-checksummed single-file journal (the same header-magic +
// checksum-with-field-zeroed discipline as internal/wal), an in-memory
// job state machine rebuilt from the journal on every open, lease-based
// ack/redeliver semantics with capped exponential backoff and a
// max-deliveries dead-letter verdict, and a content-addressed artifact
// store. Every state transition is journaled before it is applied
// (write-ahead), so a daemon killed at any instant — including mid-append
// — restarts into a state the journal can prove: finished jobs stay
// finished exactly once, leased jobs are redelivered, and a torn tail
// record simply never happened. The journal is bounded: when the file
// outgrows its threshold it is compacted, replaced whole by a new file
// holding a checkpoint image of the live queue through one atomic
// rename — crash-safe at every step (journal.go, "Compaction protocol"
// below).
package queue

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"

	"asap/internal/iofault"
	"asap/internal/metrics"
)

// Journal file layout:
//
//	file header (16 bytes):
//	  bytes 0..7   magic "ASAPQJ1\n"
//	  bytes 8..11  format version (little endian), currently 1
//	  bytes 12..15 CRC-32 (IEEE) over bytes 0..11
//
//	record frame (repeated to EOF):
//	  byte  0      record magic 0xA7
//	  byte  1      record type (RecType)
//	  bytes 2..5   payload length (little endian)
//	  bytes 6..5+n payload (JSON-encoded Record)
//	  last 4       CRC-32 (IEEE) over bytes 0..5+n
//
// A journal is one file, <dir>/journal.asapq, that only ever comes into
// existence through iofault.WriteDurable, so it is always whole: a
// header, then frames. Replay walks records until EOF or the first
// invalid frame. Broken bytes at the very tail are the expected
// signature of a crash mid-append (a torn record that never committed):
// they are counted, truncated, and replay succeeds — but only if no
// valid frame follows them. An invalid frame with valid records after
// it is mid-file corruption: replay REFUSES rather than silently
// truncating history (ErrCorruptJournal), as it refuses a damaged file
// header.
//
// Compaction protocol (crash-safe at every step):
//
//  1. After a committed transition the file has reached
//     max(threshold, 2 × its size right after the last compaction), so
//     compaction costs no more bytes than the appends it follows.
//  2. The file header plus one RecCheckpoint record — a full image of
//     the live queue — is written to a temp file in the directory and
//     fsynced. A failure or crash here leaves the journal file as it
//     was; appends continue on it and the next open deletes the temp.
//  3. The temp file is renamed over journal.asapq: a reader sees the
//     old file or the new one, never a mix, and both prove the same
//     state.
//  4. The directory is fsynced and the new file reopened for append. If
//     either fails, the journal is marked failed: it never appends to a
//     file whose directory entry may not be durable.
const (
	fileMagic    = "ASAPQJ1\n"
	fileVersion  = 1
	fileHdrSize  = 16
	recMagic     = 0xA7
	recFrameSize = 6 // magic + type + length, before payload
	recCRCSize   = 4
	// maxPayload bounds one record, so a corrupt length field cannot make
	// replay attempt a multi-gigabyte read.
	maxPayload = 16 << 20

	// journalName is the journal file inside its directory.
	journalName = "journal.asapq"

	// DefaultCompactBytes is the compaction threshold when none is set.
	DefaultCompactBytes = 8 << 20
)

// RecType enumerates journal record kinds. The type byte lives in the
// frame, outside the JSON payload, so replay can classify records without
// parsing them first.
type RecType uint8

const (
	// RecEnqueue admits a job: ID and Spec are set.
	RecEnqueue RecType = 1
	// RecLease charges one delivery to a worker: ID, Delivery, Worker,
	// Deadline are set. A job whose last record is a lease is orphaned if
	// the daemon restarts — the worker holding it is gone.
	RecLease RecType = 2
	// RecAck completes a job: ID, Delivery, Hash are set. At most one ack
	// per job can ever be journaled (Ack validates the lease first).
	RecAck RecType = 3
	// RecFail charges a failed delivery: ID, Delivery, Reason are set,
	// plus NotBefore (retry gate) or Final (dead-letter verdict).
	RecFail RecType = 4
	// RecRelease returns a leased job to pending without charging the
	// delivery: ID, Delivery are set. Drain checkpoints use it.
	RecRelease RecType = 5
	// RecCheckpoint is a full image of the queue state: Checkpoint is
	// set. It is the first record of every compacted journal file; replay
	// resets to it.
	RecCheckpoint RecType = 6
)

func (t RecType) String() string {
	switch t {
	case RecEnqueue:
		return "enqueue"
	case RecLease:
		return "lease"
	case RecAck:
		return "ack"
	case RecFail:
		return "fail"
	case RecRelease:
		return "release"
	case RecCheckpoint:
		return "checkpoint"
	}
	return fmt.Sprintf("rectype(%d)", uint8(t))
}

// Record is one journal entry. Which fields are meaningful depends on
// Type; unused fields are omitted from the encoding.
type Record struct {
	Type     RecType         `json:"-"`
	ID       uint64          `json:"id,omitempty"`
	Spec     json.RawMessage `json:"spec,omitempty"`
	Delivery int             `json:"delivery,omitempty"`
	Worker   string          `json:"worker,omitempty"`
	// Deadline and NotBefore are Unix nanoseconds on the daemon's clock.
	Deadline  int64  `json:"deadline,omitempty"`
	NotBefore int64  `json:"not_before,omitempty"`
	Hash      string `json:"hash,omitempty"`
	// Manifest is the content address of the job's artifact manifest
	// (RecAck only; empty for manifest-less jobs and pre-manifest
	// journals, which replay unchanged).
	Manifest string `json:"manifest,omitempty"`
	Reason   string `json:"reason,omitempty"`
	Final    bool   `json:"final,omitempty"`
	// Checkpoint is the full queue image (RecCheckpoint only).
	Checkpoint *CheckpointState `json:"checkpoint,omitempty"`
	// At is the wall time of the append, Unix nanoseconds; informational.
	At int64 `json:"at,omitempty"`
}

// CheckpointState is the full queue image a RecCheckpoint carries: the
// first record of every compacted journal file, sufficient on its own to
// rebuild the job table. Times are Unix nanoseconds with zero values
// stored as 0 (time.Time{}.UnixNano() is a large negative number that
// must never reach the journal).
type CheckpointState struct {
	// NextID is the next job ID the queue will assign.
	NextID uint64 `json:"next_id"`
	// Jobs is every job, in enqueue order.
	Jobs []CheckpointJob `json:"jobs,omitempty"`
}

// CheckpointJob is one job's image inside a checkpoint.
type CheckpointJob struct {
	ID         uint64          `json:"id"`
	Spec       json.RawMessage `json:"spec,omitempty"`
	State      JobState        `json:"state"`
	Deliveries int             `json:"deliveries,omitempty"`
	Worker     string          `json:"worker,omitempty"`
	Deadline   int64           `json:"deadline,omitempty"`
	NotBefore  int64           `json:"not_before,omitempty"`
	Hash       string          `json:"hash,omitempty"`
	Manifest   string          `json:"manifest,omitempty"`
	LastError  string          `json:"last_error,omitempty"`
}

// Journal errors.
var (
	ErrJournalClosed = errors.New("queue: journal closed")
	ErrBadFileHeader = errors.New("queue: journal file header invalid")
	// ErrCorruptJournal refuses a replay that found damage anywhere but
	// the file's tail: truncating there would silently delete committed
	// history.
	ErrCorruptJournal = errors.New("queue: journal corrupt mid-file, refusing replay")
	// ErrJournalFailed marks a journal whose medium failed in a way that
	// could not be rolled back; every later append is refused so the
	// in-memory state can never run ahead of what disk can prove.
	ErrJournalFailed = errors.New("queue: journal failed, appends disabled")
	// ErrSegmentedJournal refuses a directory holding journal-*.asapq
	// segments, the multi-file layout of older builds, which this journal
	// would otherwise open as empty. Segments share the journal file's
	// format, so a directory holding exactly one opens once that segment
	// is renamed to journal.asapq.
	ErrSegmentedJournal = errors.New("queue: directory holds a segmented journal from an older build")
)

// ReplayReport summarizes one journal open: how much history was
// recovered and whether a torn tail was discarded.
type ReplayReport struct {
	Records int `json:"records"`
	// GoodBytes is the offset of the last valid record's end.
	GoodBytes int64 `json:"good_bytes"`
	// TornBytes counts trailing bytes dropped as a torn append.
	TornBytes int64 `json:"torn_bytes"`
}

// JournalOptions shape a journal.
type JournalOptions struct {
	// CompactBytes is the compaction threshold (default
	// DefaultCompactBytes). Negative disables compaction.
	CompactBytes int64
	// NoRollback disables the append-failure rollback truncate — the
	// hostile-I/O campaign's negative control. A journal opened this way
	// keeps appending after a partial write, planting mid-file garbage
	// that replay must refuse. Never set it outside a campaign.
	NoRollback bool
}

// Journal is an append-only record log in one file. Appends are
// serialized and synced to the medium before they return, which is the
// write-ahead guarantee every queue transition relies on.
type Journal struct {
	mu     sync.Mutex
	fs     iofault.FS
	dir    string
	path   string // dir/journal.asapq
	active iofault.File
	off    int64 // append offset
	base   int64 // file size right after the last compaction (or creation)
	opts   JournalOptions

	closed bool
	failed bool

	// Service instruments, attached by the daemon after Open; the
	// counters are nil-safe, so a standalone journal stays unmetered.
	metAppends     *metrics.Counter
	metBytes       *metrics.Counter
	metSyncs       *metrics.Counter
	metCompactions *metrics.Counter
	metIOErrs      *metrics.CounterVec // labels: path, class
}

// setMetrics attaches append/byte/sync/compaction/io-error counters.
// Call before sharing the journal (the daemon does this inside Open).
func (j *Journal) setMetrics(appends, bytes, syncs, compactions *metrics.Counter, ioErrs *metrics.CounterVec) {
	j.mu.Lock()
	j.metAppends, j.metBytes, j.metSyncs = appends, bytes, syncs
	j.metCompactions, j.metIOErrs = compactions, ioErrs
	j.mu.Unlock()
}

// countIOErr charges one I/O failure to the journal's error family.
// Callers hold j.mu.
func (j *Journal) countIOErr(err error) {
	if j.metIOErrs != nil {
		j.metIOErrs.With("journal", iofault.Classify(err)).Inc()
	}
}

// encodeFileHeader builds the 16-byte journal file header.
func encodeFileHeader() []byte {
	buf := make([]byte, fileHdrSize)
	copy(buf, fileMagic)
	binary.LittleEndian.PutUint32(buf[8:], fileVersion)
	binary.LittleEndian.PutUint32(buf[12:], crc32.ChecksumIEEE(buf[:12]))
	return buf
}

// checkFileHeader validates the journal file header.
func checkFileHeader(b []byte) error {
	if len(b) < fileHdrSize {
		return fmt.Errorf("%w: %d header bytes", ErrBadFileHeader, len(b))
	}
	if string(b[:8]) != fileMagic {
		return fmt.Errorf("%w: bad magic", ErrBadFileHeader)
	}
	if v := binary.LittleEndian.Uint32(b[8:]); v != fileVersion {
		return fmt.Errorf("%w: version %d", ErrBadFileHeader, v)
	}
	if got, want := binary.LittleEndian.Uint32(b[12:]), crc32.ChecksumIEEE(b[:12]); got != want {
		return fmt.Errorf("%w: header checksum %08x != %08x", ErrBadFileHeader, got, want)
	}
	return nil
}

// encodeRecord frames one record: magic, type, length, payload, CRC.
func encodeRecord(rec Record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("queue: encoding %s record: %w", rec.Type, err)
	}
	buf := make([]byte, recFrameSize+len(payload)+recCRCSize)
	buf[0] = recMagic
	buf[1] = byte(rec.Type)
	binary.LittleEndian.PutUint32(buf[2:], uint32(len(payload)))
	copy(buf[recFrameSize:], payload)
	crc := crc32.ChecksumIEEE(buf[:recFrameSize+len(payload)])
	binary.LittleEndian.PutUint32(buf[recFrameSize+len(payload):], crc)
	return buf, nil
}

// Replay decodes every valid record after the file header of a
// journal file's bytes. It stops at the first invalid frame; bytes from
// there on count as the torn tail. A damaged file header is fatal.
// Whether the torn tail is acceptable (a genuine torn append) or
// mid-file corruption (valid records follow the damage) is the caller's
// call via TailIsTorn.
func Replay(data []byte) ([]Record, ReplayReport, error) {
	if err := checkFileHeader(data); err != nil {
		return nil, ReplayReport{}, err
	}
	var recs []Record
	off := int64(fileHdrSize)
	total := int64(len(data))
	for off < total {
		rec, end, ok := decodeRecordAt(data, off)
		if !ok {
			break
		}
		recs = append(recs, rec)
		off = end
	}
	return recs, ReplayReport{Records: len(recs), GoodBytes: off, TornBytes: total - off}, nil
}

// TailIsTorn reports whether the invalid region starting at off looks
// like a torn append — no complete valid frame anywhere after it. A
// valid frame beyond the damage means committed records would be lost
// by truncation: that is mid-file corruption and must be refused.
func TailIsTorn(data []byte, off int64) bool {
	for i := off + 1; i+recFrameSize+recCRCSize <= int64(len(data)); i++ {
		if data[i] != recMagic {
			continue
		}
		if _, _, ok := decodeRecordAt(data, i); ok {
			return false
		}
	}
	return true
}

// decodeRecordAt parses one frame at off; ok is false on any damage.
func decodeRecordAt(data []byte, off int64) (Record, int64, bool) {
	rest := data[off:]
	if len(rest) < recFrameSize+recCRCSize || rest[0] != recMagic {
		return Record{}, 0, false
	}
	n := int64(binary.LittleEndian.Uint32(rest[2:]))
	if n > maxPayload || int64(len(rest)) < recFrameSize+n+recCRCSize {
		return Record{}, 0, false
	}
	body := rest[:recFrameSize+n]
	crc := binary.LittleEndian.Uint32(rest[recFrameSize+n:])
	if crc != crc32.ChecksumIEEE(body) {
		return Record{}, 0, false
	}
	var rec Record
	if err := json.Unmarshal(body[recFrameSize:], &rec); err != nil {
		return Record{}, 0, false
	}
	rec.Type = RecType(rest[1])
	return rec, off + recFrameSize + n + recCRCSize, true
}

// OpenJournal opens the journal file in dir, creating it if absent. It
// first refuses a directory of the retired segmented layout and sweeps
// the temp files a crash mid-compaction leaves, then replays the file:
// a torn tail is truncated, mid-file corruption is refused, and the
// file is positioned for append. fs is the filesystem seam (iofault.OS{}
// in production).
func OpenJournal(fs iofault.FS, dir string, opts JournalOptions) (*Journal, []Record, ReplayReport, error) {
	if opts.CompactBytes == 0 {
		opts.CompactBytes = DefaultCompactBytes
	}
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, ReplayReport{}, err
	}
	ents, err := fs.ReadDir(dir)
	if err != nil {
		return nil, nil, ReplayReport{}, err
	}
	for _, e := range ents {
		if seg, _ := filepath.Match("journal-*.asapq", e.Name()); seg {
			return nil, nil, ReplayReport{}, fmt.Errorf("%w: %s", ErrSegmentedJournal, filepath.Join(dir, e.Name()))
		}
	}
	// A temp file is a compaction that never reached its rename: the
	// journal file still holds everything, so the debris goes.
	for _, e := range ents {
		if tmp, _ := filepath.Match(".tmp-*", e.Name()); tmp && !e.IsDir() {
			if err := fs.Remove(filepath.Join(dir, e.Name())); err != nil {
				return nil, nil, ReplayReport{}, err
			}
		}
	}

	j := &Journal{fs: fs, dir: dir, path: filepath.Join(dir, journalName), opts: opts}
	data, err := fs.ReadFile(j.path)
	if errors.Is(err, os.ErrNotExist) {
		if _, err := j.install(nil); err != nil {
			return nil, nil, ReplayReport{}, err
		}
		return j, nil, ReplayReport{GoodBytes: fileHdrSize}, nil
	}
	if err != nil {
		return nil, nil, ReplayReport{}, err
	}
	recs, rep, err := Replay(data)
	if err != nil {
		return nil, nil, rep, err
	}
	if rep.TornBytes > 0 {
		if !TailIsTorn(data, rep.GoodBytes) {
			return nil, nil, rep, fmt.Errorf("%w: %d bad bytes at offset %d with valid records beyond",
				ErrCorruptJournal, rep.TornBytes, rep.GoodBytes)
		}
		if err := fs.Truncate(j.path, rep.GoodBytes); err != nil {
			return nil, nil, rep, err
		}
	}
	f, err := fs.OpenFile(j.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, rep, err
	}
	if rep.TornBytes > 0 {
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, rep, err
		}
	}
	j.active, j.off, j.base = f, rep.GoodBytes, fileHdrSize
	if len(recs) > 0 && recs[0].Type == RecCheckpoint {
		_, j.base, _ = decodeRecordAt(data, fileHdrSize)
	}
	return j, recs, rep, nil
}

// install makes the journal file a new one holding the file header plus
// initial, written through iofault.WriteDurable, and opens it for
// append. renamed reports whether the rename may have run: from then on
// the previous file's handle must never take another append.
func (j *Journal) install(initial []byte) (renamed bool, err error) {
	buf := append(encodeFileHeader(), initial...)
	if err := iofault.WriteDurable(j.fs, j.dir, j.path, buf); err != nil {
		return errors.Is(err, iofault.ErrUnsyncedRename), err
	}
	f, err := j.fs.OpenFile(j.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return true, err
	}
	j.active, j.off, j.base = f, int64(len(buf)), int64(len(buf))
	return true, nil
}

// Append journals one record: frame, write, sync. It returns only after
// the record is durable on the medium, or an error, in which case the
// caller must not apply the transition (write-ahead discipline). On a
// failed write or sync the journal rolls the file back to the last
// record boundary, so a partial frame can never poison later appends;
// if even the rollback fails, the journal marks itself failed and every
// later append is refused. The record's At field is stamped by the
// caller, not here, so replay-driven re-appends stay byte-deterministic
// under a fake clock.
func (j *Journal) Append(rec Record) error {
	buf, err := encodeRecord(rec)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrJournalClosed
	}
	if j.failed {
		return ErrJournalFailed
	}
	if _, werr := j.active.Write(buf); werr != nil {
		j.countIOErr(werr)
		j.rollback()
		return fmt.Errorf("queue: journal append: %w", werr)
	}
	if serr := j.active.Sync(); serr != nil {
		j.countIOErr(serr)
		j.rollback()
		return fmt.Errorf("queue: journal sync: %w", serr)
	}
	j.off += int64(len(buf))
	j.metAppends.Inc()
	j.metBytes.Add(float64(len(buf)))
	j.metSyncs.Inc()
	return nil
}

// rollback restores the journal file to the last record boundary
// after a failed append. Callers hold j.mu. With NoRollback set (the
// campaign's negative control) the partial frame is left in place —
// exactly the corruption the protection exists to prevent.
func (j *Journal) rollback() {
	if j.opts.NoRollback {
		return
	}
	if err := j.fs.Truncate(j.path, j.off); err != nil {
		// The file cannot be restored to a provable state: stop
		// appending. Recovery at next open handles the torn tail.
		j.countIOErr(err)
		j.failed = true
		return
	}
	if err := j.active.Sync(); err != nil {
		j.countIOErr(err)
		j.failed = true
	}
}

// ShouldCompact reports whether the journal file has reached its
// compaction point: the threshold, or twice its size right after the
// last compaction if that is larger, so checkpoint bytes written stay
// proportional to transition bytes appended however large the live
// table grows. The queue checks it after each committed transition and
// drives Compact with a checkpoint of its live state.
func (j *Journal) ShouldCompact() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return !j.closed && !j.failed && j.opts.CompactBytes > 0 && j.off >= max(j.opts.CompactBytes, 2*j.base)
}

// Compact replaces the journal file with one holding only the given
// checkpoint record (see the compaction protocol at the top of the
// file). A failure before the rename aborts cleanly: the old file keeps
// appending and the next compaction point retries. A failure after it
// marks the journal failed.
func (j *Journal) Compact(checkpoint Record) error {
	frame, err := encodeRecord(checkpoint)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrJournalClosed
	}
	if j.failed {
		return ErrJournalFailed
	}
	old := j.active
	renamed, err := j.install(frame)
	if err != nil {
		j.countIOErr(err)
		if renamed {
			j.failed = true
			return fmt.Errorf("%w: compaction: %v", ErrJournalFailed, err)
		}
		return fmt.Errorf("queue: compaction: %w", err)
	}
	old.Close()
	j.metCompactions.Inc()
	j.metAppends.Inc()
	j.metBytes.Add(float64(len(frame)))
	j.metSyncs.Inc()
	return nil
}

// Size returns the append offset: header plus every good record since
// the last compaction.
func (j *Journal) Size() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.off
}

// Close syncs and closes the journal. Further appends fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	err := j.active.Sync()
	if j.failed {
		err = nil // the medium already failed; nothing left to prove
	}
	if cerr := j.active.Close(); err == nil && !j.failed {
		err = cerr
	}
	return err
}
