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
)

// writeSegment hand-builds one segment file: header plus frames. Tests
// use it to construct the exact on-disk layouts a crash can leave.
func writeSegment(t *testing.T, dir string, seq uint64, recs []Record) string {
	t.Helper()
	buf := encodeFileHeader()
	for _, rec := range recs {
		frame, err := encodeRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		buf = append(buf, frame...)
	}
	path := filepath.Join(dir, segName(seq))
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

// listJSON renders a queue's job table for byte-identical comparison.
func listJSON(t *testing.T, q *Queue) string {
	t.Helper()
	b, err := json.Marshal(q.List())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestQueueRotationCompactsToOneSegment drives a queue over a tiny
// segment threshold and checks the steady state: rotations happened,
// exactly one live segment remains, and a restart recovers the same
// job table from just the checkpoint-seeded segment.
func TestQueueRotationCompactsToOneSegment(t *testing.T) {
	dir := t.TempDir()
	clock := func() time.Time { return time.Unix(1_700_000_000, 0) }
	j, recs, _, err := OpenDirJournal(iofault.OS{}, dir, JournalOptions{SegmentBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	q, _, err := Restore(segPolicy(), Options{Journal: j, Clock: clock}, recs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		spec, _ := json.Marshal(map[string]any{"i": i, "pad": string(make([]byte, 100))})
		id, err := q.Enqueue(spec)
		if err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
		l, _, err := q.TryLease("w0")
		if err != nil || l == nil || l.ID != id {
			t.Fatalf("lease %d: %+v, %v", i, l, err)
		}
		if err := q.Ack(l, fmt.Sprintf("sha256-%064d", i), ""); err != nil {
			t.Fatalf("ack %d: %v", i, err)
		}
	}
	if j.seq == 1 {
		t.Fatal("no compaction after 40 jobs over a 1KiB threshold")
	}
	if j.Segments() != 1 {
		t.Fatalf("%d live segments, want 1", j.Segments())
	}
	live := listJSON(t, q)
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}

	j2, recs2, rep2, err := OpenDirJournal(iofault.OS{}, dir, JournalOptions{SegmentBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if rep2.TornBytes != 0 || rep2.Segments != 1 {
		t.Fatalf("reopen report %+v, want clean single segment", rep2)
	}
	if recs2[0].Type != RecCheckpoint {
		t.Fatalf("compacted journal does not start with a checkpoint: %s", recs2[0].Type)
	}
	q2, _, err := Restore(segPolicy(), Options{Journal: j2, Clock: clock}, recs2)
	if err != nil {
		t.Fatal(err)
	}
	if got := listJSON(t, q2); got != live {
		t.Fatalf("recovered table differs from live table\nlive: %s\ngot:  %s", live, got)
	}
}

// segOp is one scripted queue operation for the replay property test.
type segOp struct {
	kind byte // 'e' enqueue, 'l' lease, 'a' ack, 'f' fail, 'r' release
	pad  int  // spec padding for enqueues
	pick int  // live-lease selector for ack/fail/release
}

// runSegOps applies a scripted op sequence to a queue. Both the
// segmented and the single-segment control run the identical script, so
// their state machines evolve in lockstep.
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
			_ = err
		}
	}
}

// TestSegmentedReplayMatchesSingleSegment is the replay equivalence
// property: the same operation history run through a journal that
// rotates every 512 bytes and through one that never rotates — then
// both damaged with the same torn tail — must recover byte-identical
// job tables. Compaction must be invisible to recovery.
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
			// A fixed clock keeps deadlines and backoff gates identical
			// across both runs regardless of how many times each journal
			// consults it (rotation stamps checkpoints with the clock too).
			clock := func() time.Time { return time.Unix(1_700_000_000, 0) }

			type run struct {
				dir      string
				segBytes int64
			}
			runs := []run{
				{t.TempDir(), 512}, // rotates constantly
				{t.TempDir(), -1},  // never rotates: the single-segment control
			}
			var tables []string
			for _, r := range runs {
				j, recs, _, err := OpenDirJournal(iofault.OS{}, r.dir, JournalOptions{SegmentBytes: r.segBytes})
				if err != nil {
					t.Fatal(err)
				}
				q, _, err := Restore(segPolicy(), Options{Journal: j, Clock: clock}, recs)
				if err != nil {
					t.Fatal(err)
				}
				runSegOps(t, q, ops)
				if err := q.Close(); err != nil {
					t.Fatal(err)
				}

				// Damage the final segment of each with the same torn tail: a
				// partial frame, the signature of an append cut by a crash.
				seqs, err := listSegments(iofault.OS{}, r.dir)
				if err != nil || len(seqs) == 0 {
					t.Fatalf("segments: %v %v", seqs, err)
				}
				last := filepath.Join(r.dir, segName(seqs[len(seqs)-1]))
				frame, _ := encodeRecord(Record{Type: RecEnqueue, ID: 9999, Spec: json.RawMessage(`{"torn":true}`)})
				f, err := os.OpenFile(last, os.O_WRONLY|os.O_APPEND, 0o644)
				if err != nil {
					t.Fatal(err)
				}
				f.Write(frame[:len(frame)-5])
				f.Close()

				j2, recs2, rep2, err := OpenDirJournal(iofault.OS{}, r.dir, JournalOptions{SegmentBytes: r.segBytes})
				if err != nil {
					t.Fatalf("reopen over torn tail: %v", err)
				}
				if rep2.TornBytes != int64(len(frame)-5) {
					t.Fatalf("torn bytes %d, want %d", rep2.TornBytes, len(frame)-5)
				}
				q2, _, err := Restore(segPolicy(), Options{Journal: j2, Clock: clock}, recs2)
				if err != nil {
					t.Fatal(err)
				}
				tables = append(tables, listJSON(t, q2))
				q2.Close()
			}
			if tables[0] != tables[1] {
				t.Fatalf("segmented replay diverged from single-segment replay\nsegmented: %s\nsingle:    %s",
					tables[0], tables[1])
			}
		})
	}
}

// TestCorruptMiddleSegmentRefused: damage anywhere but the final
// segment's tail is mid-file corruption — replay must refuse, never
// silently truncate committed history.
func TestCorruptMiddleSegmentRefused(t *testing.T) {
	mkRecs := func(ids ...uint64) []Record {
		var recs []Record
		for _, id := range ids {
			recs = append(recs, Record{Type: RecEnqueue, ID: id, Spec: json.RawMessage(`{"x":1}`)})
		}
		return recs
	}
	t.Run("bitflip", func(t *testing.T) {
		dir := t.TempDir()
		writeSegment(t, dir, 1, mkRecs(1, 2))
		mid := writeSegment(t, dir, 2, mkRecs(3, 4))
		writeSegment(t, dir, 3, mkRecs(5))
		data, _ := os.ReadFile(mid)
		data[fileHdrSize+8] ^= 0xFF
		os.WriteFile(mid, data, 0o644)
		if _, _, _, err := OpenDirJournal(iofault.OS{}, dir, JournalOptions{}); !errors.Is(err, ErrCorruptJournal) {
			t.Fatalf("open over corrupt middle segment: %v, want ErrCorruptJournal", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		dir := t.TempDir()
		writeSegment(t, dir, 1, mkRecs(1, 2))
		mid := writeSegment(t, dir, 2, mkRecs(3, 4))
		writeSegment(t, dir, 3, mkRecs(5))
		data, _ := os.ReadFile(mid)
		os.WriteFile(mid, data[:len(data)-3], 0o644)
		if _, _, _, err := OpenDirJournal(iofault.OS{}, dir, JournalOptions{}); !errors.Is(err, ErrCorruptJournal) {
			t.Fatalf("open over truncated middle segment: %v, want ErrCorruptJournal", err)
		}
	})
	t.Run("damage-in-final-with-records-beyond", func(t *testing.T) {
		dir := t.TempDir()
		path := writeSegment(t, dir, 1, mkRecs(1, 2, 3))
		data, _ := os.ReadFile(path)
		// Flip a byte inside the SECOND record: record 3 stays valid
		// beyond the damage, so truncating would delete committed history.
		frame1, _ := encodeRecord(mkRecs(1)[0])
		data[fileHdrSize+int64(len(frame1))+8] ^= 0xFF
		os.WriteFile(path, data, 0o644)
		if _, _, _, err := OpenDirJournal(iofault.OS{}, dir, JournalOptions{}); !errors.Is(err, ErrCorruptJournal) {
			t.Fatalf("open over mid-file damage: %v, want ErrCorruptJournal", err)
		}
	})
}

// TestFailedRotationDebrisDropped: a crash between creating segment N+1
// and its checkpoint fsync leaves a trailing segment with no complete
// record. Open must recognize it as a failed rotation, delete it, and
// recover entirely from the older segments.
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
			writeSegment(t, dir, 1, recs)
			debrisPath := filepath.Join(dir, segName(2))
			if err := os.WriteFile(debrisPath, debris, 0o644); err != nil {
				t.Fatal(err)
			}
			j, got, rep, err := OpenDirJournal(iofault.OS{}, dir, JournalOptions{})
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			defer j.Close()
			if rep.DroppedSegments != 1 {
				t.Fatalf("dropped %d segments, want 1 (%+v)", rep.DroppedSegments, rep)
			}
			if len(got) != len(recs) {
				t.Fatalf("replayed %d records, want %d", len(got), len(recs))
			}
			if _, err := os.Stat(debrisPath); !os.IsNotExist(err) {
				t.Fatalf("failed-rotation debris survived open: %v", err)
			}
			if j.Segments() != 1 {
				t.Fatalf("%d live segments, want 1", j.Segments())
			}
		})
	}

	// The conservative counterpart: a full-size trailing segment of
	// garbage is NOT explainable as a torn creation — refuse it.
	t.Run("garbage-header-refused", func(t *testing.T) {
		dir := t.TempDir()
		writeSegment(t, dir, 1, recs)
		garbage := make([]byte, 64)
		for i := range garbage {
			garbage[i] = byte(i*37 + 11)
		}
		if err := os.WriteFile(filepath.Join(dir, segName(2)), garbage, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := OpenDirJournal(iofault.OS{}, dir, JournalOptions{}); !errors.Is(err, ErrBadFileHeader) {
			t.Fatalf("open over garbage trailing segment: %v, want ErrBadFileHeader", err)
		}
	})
}

// TestInterruptedCompactionResumed: a crash after the checkpoint
// fsynced but before the old segments were deleted leaves both on
// disk. The checkpoint at the head of the newest segment makes the old
// history inert; open must finish the deletions.
func TestInterruptedCompactionResumed(t *testing.T) {
	dir := t.TempDir()
	old := writeSegment(t, dir, 1, []Record{
		{Type: RecEnqueue, ID: 1, Spec: json.RawMessage(`{"k":1}`)},
		{Type: RecEnqueue, ID: 2, Spec: json.RawMessage(`{"k":2}`)},
		{Type: RecLease, ID: 1, Delivery: 1, Worker: "w0", Deadline: 99},
	})
	cp := Record{Type: RecCheckpoint, Checkpoint: &CheckpointState{
		NextID: 3,
		Jobs: []CheckpointJob{
			{ID: 1, Spec: json.RawMessage(`{"k":1}`), State: StateDone, Deliveries: 1, Hash: "sha256-aaa"},
			{ID: 2, Spec: json.RawMessage(`{"k":2}`), State: StatePending},
		},
	}}
	writeSegment(t, dir, 2, []Record{cp})

	j, recs, rep, err := OpenDirJournal(iofault.OS{}, dir, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if !rep.ResumedCompaction {
		t.Fatalf("interrupted compaction not resumed: %+v", rep)
	}
	if _, err := os.Stat(old); !os.IsNotExist(err) {
		t.Fatalf("superseded segment survived open: %v", err)
	}
	if j.Segments() != 1 || rep.Segments != 1 {
		t.Fatalf("segments %d/%d, want 1", j.Segments(), rep.Segments)
	}
	q, _, err := Restore(segPolicy(), Options{Journal: j}, recs)
	if err != nil {
		t.Fatal(err)
	}
	info, ok := q.Get(1)
	if !ok || info.State != StateDone || info.Hash != "sha256-aaa" {
		t.Fatalf("job 1 after resume: %+v", info)
	}
	if info2, ok := q.Get(2); !ok || info2.State != StatePending {
		t.Fatalf("job 2 after resume: %+v", info2)
	}
}

// TestLegacySingleFileJournalMigrates: a PR-7 journal.asapq becomes
// segment 1 on first directory open, history intact.
func TestLegacySingleFileJournalMigrates(t *testing.T) {
	dir := t.TempDir()
	legacy := filepath.Join(dir, legacySegName)
	want := testRecords()
	if err := os.Rename(writeSegment(t, dir, 1, want), legacy); err != nil {
		t.Fatal(err)
	}

	j2, got, rep, err := OpenDirJournal(iofault.OS{}, dir, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if _, err := os.Stat(legacy); !os.IsNotExist(err) {
		t.Fatalf("legacy file survived migration: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, segName(1))); err != nil {
		t.Fatalf("segment 1 missing after migration: %v", err)
	}
	if len(got) != len(want) || rep.Records != len(want) {
		t.Fatalf("migrated replay: %d records, want %d", len(got), len(want))
	}
}

// TestRotationFailureAbsorbed: a rotation that dies mid-flight (torn
// sync on the new segment, then a failed cleanup Remove — the worst
// case, leaving debris) must not lose anything: the old segment keeps
// appending, and the next open drops the debris and recovers a state
// identical to the live one.
func TestRotationFailureAbsorbed(t *testing.T) {
	dir := t.TempDir()
	ffs := iofault.NewFaultFS(iofault.OS{}, 7)
	// The new segment's very first sync tears; the abort path's Remove
	// fails too, so the partial segment 2 stays on disk as debris.
	ffs.Arm(iofault.Trip{Op: iofault.OpSync, Class: iofault.ClassTornSync, N: 1, Substr: segName(2)})
	ffs.Arm(iofault.Trip{Op: iofault.OpRemove, Class: iofault.ClassEIO, N: 1, Substr: segName(2)})

	clock := func() time.Time { return time.Unix(1_700_000_000, 0) }
	j, recs, _, err := OpenDirJournal(ffs, dir, JournalOptions{SegmentBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	q, _, err := Restore(segPolicy(), Options{Journal: j, Clock: clock}, recs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		spec, _ := json.Marshal(map[string]any{"i": i, "pad": string(make([]byte, 100))})
		id, err := q.Enqueue(spec)
		if err != nil {
			t.Fatalf("enqueue %d after failed rotation: %v", i, err)
		}
		l, _, err := q.TryLease("w0")
		if err != nil || l == nil || l.ID != id {
			t.Fatalf("lease %d: %v", i, err)
		}
		if err := q.Ack(l, fmt.Sprintf("sha256-%064d", i), ""); err != nil {
			t.Fatalf("ack %d: %v", i, err)
		}
	}
	if j.Failed() {
		t.Fatal("journal entered failed state from an absorbed rotation failure")
	}
	// The debris blocks further rotations this process (segment 2 exists),
	// but appends continued — nothing was lost.
	if _, err := os.Stat(filepath.Join(dir, segName(2))); err != nil {
		t.Fatalf("expected torn segment-2 debris on disk: %v", err)
	}
	live := listJSON(t, q)
	q.Close()

	// Next open (clean fs) drops the debris and recovers the live state.
	j2, recs2, rep2, err := OpenDirJournal(iofault.OS{}, dir, JournalOptions{SegmentBytes: 1 << 10})
	if err != nil {
		t.Fatalf("reopen after torn rotation: %v", err)
	}
	defer j2.Close()
	if rep2.DroppedSegments != 1 {
		t.Fatalf("dropped %d segments, want the torn rotation debris (%+v)", rep2.DroppedSegments, rep2)
	}
	q2, _, err := Restore(segPolicy(), Options{Journal: j2, Clock: clock}, recs2)
	if err != nil {
		t.Fatal(err)
	}
	if got := listJSON(t, q2); got != live {
		t.Fatalf("state after torn rotation differs\nlive: %s\ngot:  %s", live, got)
	}
}

// TestAppendRollbackKeepsJournalProvable: a failed append (partial
// write) rolls the file back to the last record boundary, so the next
// append lands clean and a reopen sees no damage at all.
func TestAppendRollbackKeepsJournalProvable(t *testing.T) {
	dir := t.TempDir()
	ffs := iofault.NewFaultFS(iofault.OS{}, 11)
	j, _, _, err := OpenDirJournal(ffs, dir, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Type: RecEnqueue, ID: 1, Spec: json.RawMessage(`{"k":1}`)}); err != nil {
		t.Fatal(err)
	}
	ffs.Arm(iofault.Trip{Op: iofault.OpWrite, Class: iofault.ClassENOSPC, N: 1, Substr: segName(1)})
	err = j.Append(Record{Type: RecEnqueue, ID: 2, Spec: json.RawMessage(`{"k":2}`)})
	if err == nil {
		t.Fatal("append under ENOSPC succeeded")
	}
	if j.Failed() {
		t.Fatal("rollback should have kept the journal alive")
	}
	// The failed frame must be gone: the next append is contiguous.
	if err := j.Append(Record{Type: RecEnqueue, ID: 3, Spec: json.RawMessage(`{"k":3}`)}); err != nil {
		t.Fatalf("append after rollback: %v", err)
	}
	j.Close()

	j2, recs, rep, err := OpenDirJournal(iofault.OS{}, dir, JournalOptions{})
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
