package queue

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"asap/internal/iofault"
	"asap/internal/metrics"
)

// writeJournal hand-builds the journal file in dir: header plus frames.
// Tests use it to construct the exact on-disk layouts a crash can leave.
func writeJournal(t *testing.T, dir string, recs []Record) string {
	t.Helper()
	buf := encodeFileHeader()
	for _, rec := range recs {
		frame, err := encodeRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		buf = append(buf, frame...)
	}
	path := filepath.Join(dir, journalName)
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func segPolicy() Policy {
	return Policy{
		MaxDeliveries: 3,
		LeaseTimeout:  time.Minute,
		BackoffBase:   time.Second,
		BackoffCap:    4 * time.Second,
	}
}

// fixedClock keeps deadlines and checkpoint stamps identical across runs.
func fixedClock() time.Time { return time.Unix(1_700_000_000, 0) }

// listJSON renders a queue's job table for byte-identical comparison.
func listJSON(t *testing.T, q *Queue) string {
	t.Helper()
	b, err := json.Marshal(q.List())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// openQueue opens the journal in dir over fs and restores a queue on it.
// The returned counter tallies the journal's compactions.
func openQueue(t *testing.T, fs iofault.FS, dir string, compactBytes int64) (*Queue, *Journal, *metrics.Counter) {
	t.Helper()
	j, recs, _, err := OpenJournal(fs, dir, JournalOptions{CompactBytes: compactBytes})
	if err != nil {
		t.Fatal(err)
	}
	compactions := metrics.NewRegistry().Counter("compactions", "")
	j.setMetrics(nil, nil, nil, compactions, nil)
	q, _, err := Restore(segPolicy(), Options{Journal: j, Clock: fixedClock}, recs)
	if err != nil {
		t.Fatal(err)
	}
	return q, j, compactions
}

// runJob enqueues one padded job, leases and acks it.
func runJob(q *Queue, i int) error {
	spec, _ := json.Marshal(map[string]any{"i": i, "pad": string(make([]byte, 100))})
	id, err := q.Enqueue(spec)
	if err != nil {
		return fmt.Errorf("enqueue %d: %w", i, err)
	}
	l, _, err := q.TryLease("w0")
	if err != nil {
		return fmt.Errorf("lease %d: %w", i, err)
	}
	if l == nil || l.ID != id {
		return fmt.Errorf("lease %d: got %+v, want job %d", i, l, id)
	}
	if err := q.Ack(l, fmt.Sprintf("sha256-%064d", i), ""); err != nil {
		return fmt.Errorf("ack %d: %w", i, err)
	}
	return nil
}

// reopenTable reopens dir on the real filesystem and returns the
// recovered job table, failing if a compaction temp file survives.
func reopenTable(t *testing.T, dir string) string {
	t.Helper()
	q, _, _ := openQueue(t, iofault.OS{}, dir, -1)
	defer q.Close()
	if tmps, _ := filepath.Glob(filepath.Join(dir, ".tmp-*")); len(tmps) > 0 {
		t.Fatalf("compaction temp files survived the reopen: %v", tmps)
	}
	return listJSON(t, q)
}

// TestQueueRotationCompactsToOneSegment drives a queue over a tiny
// compaction threshold and checks the steady state: compactions
// happened, the directory holds the one journal file and nothing else,
// and a restart recovers the same job table from its checkpoint.
func TestQueueRotationCompactsToOneSegment(t *testing.T) {
	dir := t.TempDir()
	q, _, compactions := openQueue(t, iofault.OS{}, dir, 1<<10)
	for i := 0; i < 40; i++ {
		if err := runJob(q, i); err != nil {
			t.Fatal(err)
		}
	}
	if compactions.Value() == 0 {
		t.Fatal("no compaction after 40 jobs over a 1KiB threshold")
	}
	live := listJSON(t, q)
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) != 1 || ents[0].Name() != journalName {
		t.Fatalf("directory holds %v (%v), want only %s", ents, err, journalName)
	}

	_, recs, rep, err := OpenJournal(iofault.OS{}, dir, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TornBytes != 0 || recs[0].Type != RecCheckpoint {
		t.Fatalf("reopen report %+v, first record %s; want a clean file led by a checkpoint", rep, recs[0].Type)
	}
	if got := reopenTable(t, dir); got != live {
		t.Fatalf("recovered table differs from live table\nlive: %s\ngot:  %s", live, got)
	}
}

// TestCompactionDoesNotThrash: checkpoints keep every job, so once one
// outgrows the threshold a fixed threshold would compact after every
// transition. The compaction point doubles with the checkpoint instead,
// so checkpoint bytes stay within a constant factor of appended bytes.
func TestCompactionDoesNotThrash(t *testing.T) {
	dir := t.TempDir()
	q, j, compactions := openQueue(t, iofault.OS{}, dir, 512)
	var checkpointBytes int64
	for i := 0; i < 400; i++ {
		before := compactions.Value()
		if err := runJob(q, i); err != nil {
			t.Fatal(err)
		}
		if compactions.Value() > before {
			checkpointBytes += j.Size()
		}
	}
	live := listJSON(t, q)
	q.Close()
	// 400 jobs hold about 77 KB of checkpoint; a fixed 512 B threshold
	// wrote 1,196 checkpoints, about 15 MB.
	if n := compactions.Value(); n == 0 || n > 40 {
		t.Fatalf("%v compactions over 400 jobs, want 1..40", n)
	}
	if checkpointBytes > 1<<20 {
		t.Fatalf("%d checkpoint bytes written over 400 jobs, want under 1 MiB", checkpointBytes)
	}
	if got := reopenTable(t, dir); got != live {
		t.Fatalf("recovered table differs from live table\nlive: %s\ngot:  %s", live, got)
	}
}

// segOp is one scripted queue operation for the replay property test.
type segOp struct {
	kind byte // 'e' enqueue, 'l' lease, 'a' ack, 'f' fail, 'r' release
	pad  int  // spec padding for enqueues
	pick int  // live-lease selector for ack/fail/release
}

// runSegOps applies a scripted op sequence to a queue. The compacting
// journal and the never-compacting control run the identical script,
// so their state machines evolve in lockstep.
func runSegOps(t *testing.T, q *Queue, ops []segOp) {
	t.Helper()
	var live []*Lease
	for i, op := range ops {
		switch op.kind {
		case 'e':
			spec, _ := json.Marshal(map[string]any{"op": i, "pad": string(make([]byte, op.pad))})
			if _, err := q.Enqueue(spec); err != nil {
				t.Fatalf("op %d enqueue: %v", i, err)
			}
		case 'l':
			l, _, err := q.TryLease(fmt.Sprintf("w%d", i%3))
			if err != nil {
				t.Fatalf("op %d lease: %v", i, err)
			}
			if l != nil {
				live = append(live, l)
			}
		case 'a', 'f', 'r':
			if len(live) == 0 {
				continue
			}
			k := op.pick % len(live)
			l := live[k]
			live = append(live[:k], live[k+1:]...)
			var err error
			switch op.kind {
			case 'a':
				err = q.Ack(l, fmt.Sprintf("sha256-%064d", i), "")
			case 'f':
				_, err = q.Fail(l, "scripted failure")
			case 'r':
				err = q.Release(l)
			}
			if err != nil {
				t.Fatalf("op %d %c lease %d: %v", i, op.kind, l.ID, err)
			}
		}
	}
}

// TestSegmentedReplayMatchesSingleSegment is the replay equivalence
// property: the same operation history run through a journal that
// compacts at 512 bytes and through one that never compacts, then both
// damaged with the same torn tail, must recover byte-identical job
// tables. Compaction must be invisible to recovery.
func TestSegmentedReplayMatchesSingleSegment(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1234} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			ops := make([]segOp, 300)
			for i := range ops {
				ops[i] = segOp{
					kind: []byte("eelllaafr")[rng.Intn(9)],
					pad:  rng.Intn(200),
					pick: rng.Intn(1 << 16),
				}
			}
			var tables []string
			for _, compactBytes := range []int64{512, -1} {
				dir := t.TempDir()
				q, _, compactions := openQueue(t, iofault.OS{}, dir, compactBytes)
				runSegOps(t, q, ops)
				if err := q.Close(); err != nil {
					t.Fatal(err)
				}
				if (compactions.Value() > 0) != (compactBytes > 0) {
					t.Fatalf("threshold %d: %v compactions", compactBytes, compactions.Value())
				}

				// The same torn tail on each: a partial frame, the signature
				// of an append cut by a crash.
				frame, _ := encodeRecord(Record{Type: RecEnqueue, ID: 9999, Spec: json.RawMessage(`{"torn":true}`)})
				f, err := os.OpenFile(filepath.Join(dir, journalName), os.O_WRONLY|os.O_APPEND, 0o644)
				if err != nil {
					t.Fatal(err)
				}
				f.Write(frame[:len(frame)-5])
				f.Close()

				j2, recs2, rep2, err := OpenJournal(iofault.OS{}, dir, JournalOptions{CompactBytes: compactBytes})
				if err != nil {
					t.Fatalf("reopen over torn tail: %v", err)
				}
				if rep2.TornBytes != int64(len(frame)-5) {
					t.Fatalf("torn bytes %d, want %d", rep2.TornBytes, len(frame)-5)
				}
				q2, _, err := Restore(segPolicy(), Options{Journal: j2, Clock: fixedClock}, recs2)
				if err != nil {
					t.Fatal(err)
				}
				tables = append(tables, listJSON(t, q2))
				q2.Close()
			}
			if tables[0] != tables[1] {
				t.Fatalf("compacted replay diverged from uncompacted replay\ncompacted:   %s\nuncompacted: %s",
					tables[0], tables[1])
			}
		})
	}
}

// TestCorruptMiddleSegmentRefused: damage in the middle of the journal
// file, with valid records after it, is mid-file corruption. Open must
// refuse it, never truncate committed history away as a torn tail.
func TestCorruptMiddleSegmentRefused(t *testing.T) {
	var recs []Record
	for id := uint64(1); id <= 5; id++ {
		recs = append(recs, Record{Type: RecEnqueue, ID: id, Spec: json.RawMessage(fmt.Sprintf(`{"k":%d}`, id))})
	}
	frame, _ := encodeRecord(recs[0])
	second := int64(fileHdrSize + len(frame)) // offset of record 2
	for name, damage := range map[string]func([]byte) []byte{
		"bitflip": func(b []byte) []byte { b[second+8] ^= 0xFF; return b },
		"truncated": func(b []byte) []byte {
			return append(b[:second+5:second+5], b[second+int64(len(frame)):]...)
		},
		"damage-in-final-with-records-beyond": func(b []byte) []byte { b[len(b)-len(frame)-3] ^= 0x01; return b },
	} {
		damage := damage
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			path := writeJournal(t, dir, recs)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data = damage(data)
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, _, _, err := OpenJournal(iofault.OS{}, dir, JournalOptions{}); !errors.Is(err, ErrCorruptJournal) {
				t.Fatalf("open over mid-file damage: %v, want ErrCorruptJournal", err)
			}
			if after, _ := os.ReadFile(path); len(after) != len(data) {
				t.Fatalf("refused open truncated the file from %d to %d bytes", len(data), len(after))
			}
		})
	}
}

// TestFailedRotationDebrisDropped: a compaction that crashed before its
// rename leaves a temp file beside an intact journal. Open deletes the
// temp file, whatever state it reached, and recovers from the journal.
func TestFailedRotationDebrisDropped(t *testing.T) {
	recs := []Record{
		{Type: RecEnqueue, ID: 1, Spec: json.RawMessage(`{"k":1}`)},
		{Type: RecEnqueue, ID: 2, Spec: json.RawMessage(`{"k":2}`)},
	}
	cases := map[string][]byte{
		"empty":          {},
		"partial-header": encodeFileHeader()[:7],
		"torn-first-record": func() []byte {
			frame, _ := encodeRecord(Record{Type: RecCheckpoint, Checkpoint: &CheckpointState{NextID: 3}})
			return append(encodeFileHeader(), frame[:len(frame)-9]...)
		}(),
	}
	for name, debris := range cases {
		name, debris := name, debris
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			writeJournal(t, dir, recs)
			debrisPath := filepath.Join(dir, ".tmp-4242")
			if err := os.WriteFile(debrisPath, debris, 0o644); err != nil {
				t.Fatal(err)
			}
			j, got, _, err := OpenJournal(iofault.OS{}, dir, JournalOptions{})
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			defer j.Close()
			if len(got) != len(recs) {
				t.Fatalf("replayed %d records, want %d", len(got), len(recs))
			}
			if _, err := os.Stat(debrisPath); !os.IsNotExist(err) {
				t.Fatalf("failed-compaction debris survived open: %v", err)
			}
		})
	}

	// The conservative counterpart: debris is only ever a temp file. A
	// journal file with a full-size garbage header is refused, never
	// replaced by an empty journal.
	t.Run("garbage-header-refused", func(t *testing.T) {
		dir := t.TempDir()
		garbage := make([]byte, 64)
		for i := range garbage {
			garbage[i] = byte(i*37 + 11)
		}
		if err := os.WriteFile(filepath.Join(dir, journalName), garbage, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := OpenJournal(iofault.OS{}, dir, JournalOptions{}); !errors.Is(err, ErrBadFileHeader) {
			t.Fatalf("open over a garbage journal file: %v, want ErrBadFileHeader", err)
		}
	})
}

// TestOpenRefusesSegmentedLayout: a directory holding journal-*.asapq
// segments from an older build is refused by name, and left as it was,
// rather than opened as an empty queue.
func TestOpenRefusesSegmentedLayout(t *testing.T) {
	dir := t.TempDir()
	seg := filepath.Join(dir, "journal-00000001.asapq")
	if err := os.Rename(writeJournal(t, dir, testRecords()), seg); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := OpenJournal(iofault.OS{}, dir, JournalOptions{}); !errors.Is(err, ErrSegmentedJournal) {
		t.Fatalf("open over a segmented directory: %v, want ErrSegmentedJournal", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) != 1 || ents[0].Name() != filepath.Base(seg) {
		t.Fatalf("refused open changed the directory: %v (%v)", ents, err)
	}
}

// TestRotationFailureAbsorbed: a compaction that dies before its rename
// (a torn sync of the temp file, then a failed cleanup Remove, the worst
// case, leaving debris) must not lose anything: the old file keeps
// appending, a later compaction still succeeds beside the debris, and
// the next open deletes the debris and recovers the live state.
func TestRotationFailureAbsorbed(t *testing.T) {
	dir := t.TempDir()
	ffs := iofault.NewFaultFS(iofault.OS{}, 7)
	q, j, compactions := openQueue(t, ffs, dir, 1<<10)
	ffs.Arm(iofault.Trip{Op: iofault.OpSync, Class: iofault.ClassTornSync, N: 1, Substr: ".tmp-"})
	ffs.Arm(iofault.Trip{Op: iofault.OpRemove, Class: iofault.ClassEIO, N: 1, Substr: ".tmp-"})
	for i := 0; i < 30; i++ {
		if err := runJob(q, i); err != nil {
			t.Fatalf("after failed compaction: %v", err)
		}
	}
	if len(ffs.Log()) != 2 {
		t.Fatalf("fired %+v, want the torn temp sync and the failed Remove", ffs.Log())
	}
	if j.failed || compactions.Value() == 0 {
		t.Fatalf("failed %v, %v compactions; want an absorbed failure, then a compaction", j.failed, compactions.Value())
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, ".tmp-*")); len(tmps) != 1 {
		t.Fatalf("temp files %v, want the one torn compaction's debris", tmps)
	}
	live := listJSON(t, q)
	q.Close()
	if got := reopenTable(t, dir); got != live {
		t.Fatalf("state after torn compaction differs\nlive: %s\ngot:  %s", live, got)
	}
}

// TestCompactionFailureWindows aims one fault at each step of a
// compaction. Before the rename the failure is absorbed: the old file
// keeps appending and every job commits. From the rename on, a failed
// directory sync or reopen fails the journal, so the next transition is
// refused. Either way a reopen recovers exactly the committed table
// (the live one) and finds no temp file.
func TestCompactionFailureWindows(t *testing.T) {
	cases := []struct {
		name     string
		trip     iofault.Trip
		absorbed bool
	}{
		{"createtemp-enospc", iofault.Trip{Op: iofault.OpCreateTemp, Class: iofault.ClassENOSPC}, true},
		{"write-enospc", iofault.Trip{Op: iofault.OpWrite, Class: iofault.ClassENOSPC, Substr: ".tmp-"}, true},
		{"torn-sync", iofault.Trip{Op: iofault.OpSync, Class: iofault.ClassTornSync, Substr: ".tmp-"}, true},
		{"rename-fail", iofault.Trip{Op: iofault.OpRename, Class: iofault.ClassRenameFail, Substr: journalName}, true},
		{"syncdir-eio", iofault.Trip{Op: iofault.OpSyncDir, Class: iofault.ClassEIO}, false},
		{"reopen-eio", iofault.Trip{Op: iofault.OpOpen, Class: iofault.ClassEIO, Substr: journalName}, false},
		{"kill-at-temp-sync", iofault.Trip{Op: iofault.OpSync, Class: iofault.ClassKill, Substr: ".tmp-"}, false},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			ffs := iofault.NewFaultFS(iofault.OS{}, 3)
			q, j, compactions := openQueue(t, ffs, dir, 1<<10)
			tc.trip.N = 1
			ffs.Arm(tc.trip)
			var err error
			for i := 0; i < 30 && err == nil; i++ {
				err = runJob(q, i)
			}
			if len(ffs.Log()) != 1 {
				t.Fatalf("fired %+v, want the one armed fault", ffs.Log())
			}
			if tc.absorbed {
				if err != nil || j.failed || compactions.Value() == 0 {
					t.Fatalf("err %v, failed %v, %v compactions; want the failure absorbed and a later compaction",
						err, j.failed, compactions.Value())
				}
			} else if err == nil {
				t.Fatal("every job committed after a failure from the rename on")
			} else if tc.trip.Class != iofault.ClassKill && !errors.Is(err, ErrJournalFailed) {
				t.Fatalf("transition after the failure: %v, want ErrJournalFailed", err)
			}
			live := listJSON(t, q)
			q.Close()
			if got := reopenTable(t, dir); got != live {
				t.Fatalf("recovered table differs from the committed one\nlive: %s\ngot:  %s", live, got)
			}
		})
	}
}

// TestAppendRollbackKeepsJournalProvable: a failed append (partial
// write) rolls the file back to the last record boundary, so the next
// append lands clean and a reopen sees no damage at all.
func TestAppendRollbackKeepsJournalProvable(t *testing.T) {
	dir := t.TempDir()
	ffs := iofault.NewFaultFS(iofault.OS{}, 11)
	j, _, _, err := OpenJournal(ffs, dir, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Type: RecEnqueue, ID: 1, Spec: json.RawMessage(`{"k":1}`)}); err != nil {
		t.Fatal(err)
	}
	ffs.Arm(iofault.Trip{Op: iofault.OpWrite, Class: iofault.ClassENOSPC, N: 1, Substr: journalName})
	err = j.Append(Record{Type: RecEnqueue, ID: 2, Spec: json.RawMessage(`{"k":2}`)})
	if err == nil {
		t.Fatal("append under ENOSPC succeeded")
	}
	if j.failed {
		t.Fatal("rollback should have kept the journal alive")
	}
	// The failed frame must be gone: the next append is contiguous.
	if err := j.Append(Record{Type: RecEnqueue, ID: 3, Spec: json.RawMessage(`{"k":3}`)}); err != nil {
		t.Fatalf("append after rollback: %v", err)
	}
	j.Close()

	j2, recs, rep, err := OpenJournal(iofault.OS{}, dir, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if rep.TornBytes != 0 {
		t.Fatalf("reopen found %d torn bytes after a rolled-back append", rep.TornBytes)
	}
	if len(recs) != 2 || recs[0].ID != 1 || recs[1].ID != 3 {
		t.Fatalf("replayed %+v, want records 1 and 3", recs)
	}
}
