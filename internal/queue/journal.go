// Package queue is the durable work queue behind cmd/asapd: a
// CRC-checksummed segmented journal (the same header-magic +
// checksum-with-field-zeroed discipline as internal/wal), an in-memory
// job state machine rebuilt from the journal on every open, lease-based
// ack/redeliver semantics with capped exponential backoff and a
// max-deliveries dead-letter verdict, and a content-addressed artifact
// store. Every state transition is journaled before it is applied
// (write-ahead), so a daemon killed at any instant — including mid-append
// — restarts into a state the journal can prove: finished jobs stay
// finished exactly once, leased jobs are redelivered, and a torn tail
// record simply never happened. The journal is bounded: when the active
// segment crosses a size threshold it rotates, seeding the next segment
// with a checkpoint image of the live queue and deleting the fully
// superseded history — a compaction that is crash-safe at every step
// (journal.go, "Compaction protocol" below).
package queue

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
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
// A journal is a directory of segment files journal-%08d.asapq replayed
// in sequence order. Replay walks records until EOF or the first invalid
// frame. Broken bytes at the very tail of the FINAL segment are the
// expected signature of a crash mid-append (a torn record that never
// committed): they are counted, truncated, and replay succeeds — but
// only if no valid frame follows them. An invalid frame with valid
// records after it, or any damage in a non-final segment, is mid-file
// corruption: replay REFUSES rather than silently truncating history
// (ErrCorruptJournal). The journal refuses to open only when a file
// header is damaged or corruption is mid-file, since then the history
// downstream of the damage cannot be trusted.
//
// Compaction protocol (crash-safe at every step):
//
//  1. The active segment N crosses the size threshold after an append.
//  2. A new segment N+1 is created containing the file header plus one
//     RecCheckpoint record — a full image of the live queue state — and
//     is fsynced, then its directory is fsynced. Until both syncs land,
//     segment N+1 does not exist as far as recovery is concerned: a
//     crash leaves a partial file with zero complete records, which
//     replay recognizes as a failed rotation (older segments still hold
//     everything) and deletes.
//  3. Appends switch to segment N+1.
//  4. Segments ≤ N are deleted and the directory fsynced. A crash
//     before or during this step leaves stale segments behind; replay
//     handles them naturally — the checkpoint record at the head of
//     N+1 resets state, making the stale history inert — and finishes
//     the deletion on the next open.
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

	// segPrefix/segSuffix frame segment file names: journal-%08d.asapq.
	segPrefix = "journal-"
	segSuffix = ".asapq"
	// legacySegName is the PR-7 single-file journal, migrated to segment
	// 1 on first open.
	legacySegName = "journal.asapq"

	// DefaultSegmentBytes is the rotation threshold when none is set.
	DefaultSegmentBytes = 8 << 20
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
	// set. It is the first record of every compacted segment; replay
	// resets to it, making any older history inert.
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
// first record of every compacted segment, sufficient on its own to
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
	// the final segment's tail: truncating there would silently delete
	// committed history.
	ErrCorruptJournal = errors.New("queue: journal corrupt mid-file, refusing replay")
	// ErrJournalFailed marks a journal whose medium failed in a way that
	// could not be rolled back; every later append is refused so the
	// in-memory state can never run ahead of what disk can prove.
	ErrJournalFailed = errors.New("queue: journal failed, appends disabled")
)

// ReplayReport summarizes one journal open: how much history was
// recovered and whether a torn tail was discarded.
type ReplayReport struct {
	Records int `json:"records"`
	// GoodBytes is the offset of the last valid record's end in the
	// active (final) segment.
	GoodBytes int64 `json:"good_bytes"`
	// TornBytes counts trailing bytes dropped as a torn append,
	// including a whole trailing segment dropped as a failed rotation.
	TornBytes int64 `json:"torn_bytes"`
	// Segments is the number of live segment files after open.
	Segments int `json:"segments,omitempty"`
	// DroppedSegments counts trailing segments discarded as failed
	// rotations (crash between creating a new segment and its fsync).
	DroppedSegments int `json:"dropped_segments,omitempty"`
	// ResumedCompaction reports that superseded segments left behind by
	// a crash mid-compaction were deleted on this open.
	ResumedCompaction bool `json:"resumed_compaction,omitempty"`
}

// JournalOptions shape a directory journal.
type JournalOptions struct {
	// SegmentBytes is the rotation threshold (default DefaultSegmentBytes).
	// Negative disables rotation.
	SegmentBytes int64
	// NoRollback disables the append-failure rollback truncate — the
	// hostile-I/O campaign's negative control. A journal opened this way
	// keeps appending after a partial write, planting mid-file garbage
	// that replay must refuse. Never set it outside a campaign.
	NoRollback bool
}

// Journal is an append-only segmented record log. Appends are serialized
// and synced to the medium before they return, which is the write-ahead
// guarantee every queue transition relies on.
type Journal struct {
	mu     sync.Mutex
	fs     iofault.FS
	dir    string // segment directory
	active iofault.File
	path   string // active segment path
	seq    uint64 // active segment sequence number
	off    int64  // append offset in the active segment
	opts   JournalOptions

	segments int // live segment files

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

// Replay decodes every valid record after the file header of one
// segment's bytes. It stops at the first invalid frame; bytes from
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

// segName renders a segment file name.
func segName(seq uint64) string {
	return fmt.Sprintf("%s%08d%s", segPrefix, seq, segSuffix)
}

// parseSegName extracts a segment sequence number, if name is one.
func parseSegName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	mid := name[len(segPrefix) : len(name)-len(segSuffix)]
	if len(mid) == 0 {
		return 0, false
	}
	var seq uint64
	for _, c := range mid {
		if c < '0' || c > '9' {
			return 0, false
		}
		seq = seq*10 + uint64(c-'0')
	}
	return seq, true
}

// listSegments returns the segment sequence numbers present in dir,
// sorted ascending.
func listSegments(fs iofault.FS, dir string) ([]uint64, error) {
	ents, err := fs.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		if seq, ok := parseSegName(e.Name()); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, k int) bool { return seqs[i] < seqs[k] })
	return seqs, nil
}

// OpenDirJournal opens the segmented journal rooted at dir, migrating a
// legacy single-file journal if one is present, replaying every live
// segment in order, dropping trailing failed-rotation debris, resuming
// any interrupted compaction, and positioning the newest segment for
// append. fs is the filesystem seam (iofault.OS{} in production).
func OpenDirJournal(fs iofault.FS, dir string, opts JournalOptions) (*Journal, []Record, ReplayReport, error) {
	if opts.SegmentBytes == 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, ReplayReport{}, err
	}

	// Migrate the PR-7 single-file layout: journal.asapq becomes segment
	// 1. The rename is atomic, so a crash leaves exactly one of the two
	// names; nothing is copied, nothing can be half-moved.
	legacy := filepath.Join(dir, legacySegName)
	if _, err := fs.Stat(legacy); err == nil {
		if err := fs.Rename(legacy, filepath.Join(dir, segName(1))); err != nil {
			return nil, nil, ReplayReport{}, fmt.Errorf("queue: migrating legacy journal: %w", err)
		}
		if err := fs.SyncDir(dir); err != nil {
			return nil, nil, ReplayReport{}, fmt.Errorf("queue: migrating legacy journal: %w", err)
		}
	}

	seqs, err := listSegments(fs, dir)
	if err != nil {
		return nil, nil, ReplayReport{}, err
	}
	var rep ReplayReport

	// Drop trailing failed rotations: a final segment with no complete
	// record while older segments exist can only be a rotation that
	// crashed before its checkpoint fsynced — the older segments still
	// hold the complete history.
	for len(seqs) >= 2 {
		last := filepath.Join(dir, segName(seqs[len(seqs)-1]))
		data, rerr := fs.ReadFile(last)
		if rerr != nil {
			return nil, nil, rep, rerr
		}
		recs, _, rerr := Replay(data)
		if (rerr != nil || len(recs) == 0) && wholeFileIsTornOrShort(data) {
			if err := fs.Remove(last); err != nil {
				return nil, nil, rep, err
			}
			if err := fs.SyncDir(dir); err != nil {
				return nil, nil, rep, err
			}
			rep.TornBytes += int64(len(data))
			rep.DroppedSegments++
			seqs = seqs[:len(seqs)-1]
			continue
		}
		break
	}

	if len(seqs) == 0 {
		// Fresh journal: create segment 1.
		j := &Journal{fs: fs, dir: dir, opts: opts, seq: 1, segments: 1,
			path: filepath.Join(dir, segName(1))}
		if err := j.createActive(nil); err != nil {
			return nil, nil, rep, err
		}
		rep.GoodBytes = fileHdrSize
		rep.Segments = 1
		return j, nil, rep, nil
	}

	// Replay non-final segments strictly: they were sealed by a
	// successful rotation, so any damage is mid-file corruption.
	var all []Record
	for _, seq := range seqs[:len(seqs)-1] {
		p := filepath.Join(dir, segName(seq))
		data, err := fs.ReadFile(p)
		if err != nil {
			return nil, nil, rep, err
		}
		recs, r, err := Replay(data)
		if err != nil {
			return nil, nil, rep, fmt.Errorf("%w: segment %d: %v", ErrCorruptJournal, seq, err)
		}
		if r.TornBytes > 0 {
			return nil, nil, rep, fmt.Errorf("%w: segment %d has %d bad bytes mid-journal",
				ErrCorruptJournal, seq, r.TornBytes)
		}
		all = append(all, recs...)
		rep.Records += r.Records
	}

	// The final segment is the active one: torn tails allowed (and
	// truncated), mid-file corruption refused.
	lastSeq := seqs[len(seqs)-1]
	j := &Journal{fs: fs, dir: dir, opts: opts, seq: lastSeq, segments: len(seqs),
		path: filepath.Join(dir, segName(lastSeq))}
	recs, arep, err := j.openSegmentFile(all)
	if err != nil {
		return nil, nil, rep, err
	}
	rep.Records += arep.Records - len(all)
	rep.GoodBytes = arep.GoodBytes
	rep.TornBytes += arep.TornBytes
	rep.Segments = len(seqs)

	// Resume an interrupted compaction: if the active segment opens with
	// a checkpoint, every older segment is superseded — the crash
	// happened between the checkpoint fsync and the deletions.
	if len(seqs) > 1 && arep.Records > len(all) {
		firstOwn := recs[len(all)]
		if firstOwn.Type == RecCheckpoint {
			for _, seq := range seqs[:len(seqs)-1] {
				if err := fs.Remove(filepath.Join(dir, segName(seq))); err != nil {
					return nil, nil, rep, err
				}
			}
			if err := fs.SyncDir(dir); err != nil {
				return nil, nil, rep, err
			}
			j.segments = 1
			rep.Segments = 1
			rep.ResumedCompaction = true
		}
	}
	return j, recs, rep, nil
}

// wholeFileIsTornOrShort reports whether data is explainable as a
// crashed segment creation: empty, a partial header, or a valid header
// followed only by a torn prefix of a first record (no complete frame).
func wholeFileIsTornOrShort(data []byte) bool {
	if len(data) < fileHdrSize {
		return true
	}
	if err := checkFileHeader(data); err != nil {
		// A full-size header with wrong magic/CRC is not a torn write of
		// OUR header unless the damage is a pure truncation; be
		// conservative and treat garbage as corruption, not a torn file.
		return false
	}
	return TailIsTorn(data, fileHdrSize)
}

// openSegmentFile replays j.path (creating it fresh if absent or
// zero-length), truncates a genuinely torn tail, refuses mid-file
// corruption, and opens the file for append. prior is the record history
// of earlier segments; returned records and report cover prior+own.
func (j *Journal) openSegmentFile(prior []Record) ([]Record, ReplayReport, error) {
	data, err := j.fs.ReadFile(j.path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, ReplayReport{}, err
	}
	if len(data) == 0 {
		if err := j.createActive(nil); err != nil {
			return nil, ReplayReport{}, err
		}
		return prior, ReplayReport{Records: len(prior), GoodBytes: fileHdrSize, Segments: j.segments}, nil
	}
	// A partial header can only be a crash during segment creation: no
	// record ever followed it. Recreate in place.
	if len(data) < fileHdrSize {
		torn := int64(len(data))
		if err := j.fs.Truncate(j.path, 0); err != nil {
			return nil, ReplayReport{}, err
		}
		if err := j.createActive(nil); err != nil {
			return nil, ReplayReport{}, err
		}
		return prior, ReplayReport{Records: len(prior), GoodBytes: fileHdrSize, TornBytes: torn, Segments: j.segments}, nil
	}
	recs, rep, err := Replay(data)
	if err != nil {
		return nil, rep, err
	}
	if rep.TornBytes > 0 {
		if !TailIsTorn(data, rep.GoodBytes) {
			return nil, rep, fmt.Errorf("%w: %d bad bytes at offset %d with valid records beyond",
				ErrCorruptJournal, rep.TornBytes, rep.GoodBytes)
		}
		if err := j.fs.Truncate(j.path, rep.GoodBytes); err != nil {
			return nil, rep, err
		}
	}
	f, err := j.fs.OpenFile(j.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, rep, err
	}
	if rep.TornBytes > 0 {
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, rep, err
		}
	}
	j.active = f
	j.off = rep.GoodBytes
	all := append(append([]Record(nil), prior...), recs...)
	rep.Records = len(all)
	rep.Segments = j.segments
	return all, rep, nil
}

// createActive creates the active segment file at j.path with a fresh
// header plus optional initial frames, fully fsynced (file then dir).
func (j *Journal) createActive(initial []byte) error {
	f, err := j.fs.OpenFile(j.path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	buf := append(encodeFileHeader(), initial...)
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := j.fs.SyncDir(j.dir); err != nil {
		f.Close()
		return err
	}
	j.active = f
	j.off = int64(len(buf))
	return nil
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

// rollback restores the active segment to the last record boundary
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

// ShouldRotate reports whether the active segment has crossed the
// rotation threshold. The queue checks it after each committed
// transition and drives Rotate with a checkpoint of its live state.
func (j *Journal) ShouldRotate() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return !j.closed && !j.failed && j.opts.SegmentBytes > 0 && j.off >= j.opts.SegmentBytes
}

// Rotate runs one compaction: create segment seq+1 seeded with the
// given checkpoint record (fsynced file-then-dir), switch appends to
// it, and delete every older segment. A failure before the switch
// aborts cleanly — the old segment keeps appending and the next
// threshold crossing retries; a failure during the deletions leaves
// stale segments the next open reaps. See the compaction protocol
// comment at the top of the file.
func (j *Journal) Rotate(checkpoint Record) error {
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
	newSeq := j.seq + 1
	newPath := filepath.Join(j.dir, segName(newSeq))
	nf, err := j.fs.OpenFile(newPath, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		j.countIOErr(err)
		return fmt.Errorf("queue: compaction: creating segment: %w", err)
	}
	abort := func(cause error) error {
		nf.Close()
		j.fs.Remove(newPath) // best-effort; open-time debris handling reaps it too
		j.countIOErr(cause)
		return fmt.Errorf("queue: compaction: %w", cause)
	}
	buf := append(encodeFileHeader(), frame...)
	if _, err := nf.Write(buf); err != nil {
		return abort(err)
	}
	if err := nf.Sync(); err != nil {
		return abort(err)
	}
	if err := j.fs.SyncDir(j.dir); err != nil {
		return abort(err)
	}

	// The checkpoint is durable: the new segment is now the journal.
	j.active.Close()
	oldSeq := j.seq
	j.active, j.path, j.seq, j.off = nf, newPath, newSeq, int64(len(buf))
	j.metCompactions.Inc()
	j.metAppends.Inc()
	j.metBytes.Add(float64(len(frame)))
	j.metSyncs.Inc()

	// Delete the superseded history. Failures here are deliberately
	// swallowed: stale segments are inert (the checkpoint resets replay)
	// and the next open finishes the job.
	removed := 0
	for seq := oldSeq; seq >= 1; seq-- {
		p := filepath.Join(j.dir, segName(seq))
		if _, err := j.fs.Stat(p); err != nil {
			continue
		}
		if err := j.fs.Remove(p); err != nil {
			j.countIOErr(err)
			continue
		}
		removed++
	}
	if err := j.fs.SyncDir(j.dir); err != nil {
		j.countIOErr(err)
	}
	j.segments = j.segments + 1 - removed
	return nil
}

// Size returns the append offset in the active segment (header + all
// good records since the last compaction).
func (j *Journal) Size() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.off
}

// Segments returns the number of live segment files.
func (j *Journal) Segments() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.segments
}

// Failed reports whether the journal has entered the failed state
// (appends permanently refused after an unrecoverable I/O error).
func (j *Journal) Failed() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.failed
}

// Close syncs and closes the journal. Further appends fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	if j.active == nil {
		return nil
	}
	err := j.active.Sync()
	if j.failed {
		err = nil // the medium already failed; nothing left to prove
	}
	if cerr := j.active.Close(); err == nil && !j.failed {
		err = cerr
	}
	return err
}
