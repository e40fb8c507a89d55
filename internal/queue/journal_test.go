package queue

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"asap/internal/iofault"
)

func testRecords() []Record {
	return []Record{
		{Type: RecEnqueue, ID: 1, Spec: json.RawMessage(`{"k":1}`)},
		{Type: RecLease, ID: 1, Delivery: 1, Worker: "w0", Deadline: 42},
		{Type: RecAck, ID: 1, Delivery: 1, Hash: "sha256-abc"},
	}
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.asapq")
	j, recs, rep, err := OpenFileJournal(path)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if len(recs) != 0 || rep.Records != 0 {
		t.Fatalf("fresh journal replayed %d records", len(recs))
	}
	want := testRecords()
	for _, rec := range want {
		if err := j.Append(rec); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	_, got, rep, err := OpenFileJournal(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if rep.TornBytes != 0 {
		t.Fatalf("clean journal reported %d torn bytes", rep.TornBytes)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Type != want[i].Type || got[i].ID != want[i].ID ||
			got[i].Delivery != want[i].Delivery || got[i].Hash != want[i].Hash {
			t.Errorf("record %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}

func TestJournalTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.asapq")
	j, _, _, err := OpenFileJournal(path)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for _, rec := range testRecords() {
		if err := j.Append(rec); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	j.Close()

	// Append garbage plus a prefix of a valid frame: a torn record.
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	frame, _ := encodeRecord(Record{Type: RecEnqueue, ID: 9, Spec: json.RawMessage(`{"x":9}`)})
	torn := append(append([]byte(nil), whole...), frame[:len(frame)-3]...)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	_, recs, rep, err := OpenFileJournal(path)
	if err != nil {
		t.Fatalf("reopen over torn tail: %v", err)
	}
	if len(recs) != 3 {
		t.Fatalf("replayed %d records over torn tail, want 3", len(recs))
	}
	if rep.TornBytes != int64(len(frame)-3) {
		t.Fatalf("torn bytes %d, want %d", rep.TornBytes, len(frame)-3)
	}
	// The open truncated the file back to a record boundary.
	fixed, _ := os.ReadFile(path)
	if !bytes.Equal(fixed, whole) {
		t.Fatalf("torn tail not truncated: %d bytes, want %d", len(fixed), len(whole))
	}
}

func TestJournalMidFileCorruptionStopsReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.asapq")
	j, _, _, err := OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range testRecords() {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	data, _ := os.ReadFile(path)
	data[fileHdrSize+8] ^= 0xFF // flip a byte inside the first record
	recs, rep, err := Replay(data)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if len(recs) != 0 {
		t.Fatalf("replay recovered %d records past corruption, want 0", len(recs))
	}
	if rep.TornBytes == 0 {
		t.Fatal("corruption not reported as torn bytes")
	}
}

func TestJournalBadHeaderFatal(t *testing.T) {
	data := encodeFileHeader()
	data[0] = 'X'
	if _, _, err := Replay(data); !errors.Is(err, ErrBadFileHeader) {
		t.Fatalf("bad magic: got %v, want ErrBadFileHeader", err)
	}
	short := []byte{1, 2, 3}
	if _, _, err := Replay(short); !errors.Is(err, ErrBadFileHeader) {
		t.Fatalf("short header: got %v, want ErrBadFileHeader", err)
	}
}

func TestJournalAppendAfterCloseFails(t *testing.T) {
	j, _, _, err := OpenFileJournal(filepath.Join(t.TempDir(), "journal.asapq"))
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if err := j.Append(Record{Type: RecEnqueue, ID: 1}); !errors.Is(err, ErrJournalClosed) {
		t.Fatalf("append after close: %v", err)
	}
}

// TestOnDiskGolden pins the bytes a journal segment and a store object
// hold for fixed input, captured before the campaign's raw-medium
// journal path was removed. Data directories written by older builds
// must keep opening.
func TestOnDiskGolden(t *testing.T) {
	const (
		segmentHex = "41534150514a310a010000009ed9b876a7011e0000007b226964223a312c2273706563223a7b2278223a317d2c226174223a377d4a6ea012a703280000007b226964223a312c2264656c6976657279223a312c2268617368223a227368613235362d6162227d3a06d439"
		objectHash = "sha256-51bc0fc1f19104fa6e89ce50be9aa1f57c3346c1ca51ab49f5f00e14ce8f8076"
	)
	dir := t.TempDir()
	j, _, _, err := OpenDirJournal(iofault.OS{}, dir, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []Record{
		{Type: RecEnqueue, ID: 1, Spec: json.RawMessage(`{"x":1}`), At: 7},
		{Type: RecAck, ID: 1, Delivery: 1, Hash: "sha256-ab"},
	} {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	seg, err := os.ReadFile(filepath.Join(dir, "journal-00000001.asapq"))
	if err != nil {
		t.Fatal(err)
	}
	if h := hex.EncodeToString(seg); h != segmentHex {
		t.Fatalf("journal segment bytes moved:\n got %s\nwant %s", h, segmentHex)
	}

	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	body := []byte("hello artifact\n")
	if hash, err := st.Put(body); err != nil || hash != objectHash {
		t.Fatalf("Put = %s, %v; want %s", hash, err, objectHash)
	}
	obj, err := os.ReadFile(filepath.Join(dir, "objects", objectHash[7:9], objectHash[9:]))
	if err != nil || !bytes.Equal(obj, body) {
		t.Fatalf("store object = %q, %v; want the artifact bytes verbatim", obj, err)
	}
}
