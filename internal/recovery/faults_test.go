package recovery

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"asap/internal/arch"
	"asap/internal/core"
	"asap/internal/memdev"
	"asap/internal/wal"
)

// Synthetic crash states, one per fault class, so the classification rules
// can be pinned precisely: which damage is fatal (undo material for an
// uncommitted region lost) and which is discardable (provably stale).

const (
	synBase = uint64(0x40000) // log buffer base
	synSize = uint64(4 * wal.RecordBytes)
	synData = uint64(0x80000) // data lines the region wrote
)

var synRID = arch.MakeRID(0, 7)

// synClosed builds a crash state holding one uncommitted region whose full
// (closed) record persisted: a checked header at the first record slot and
// seven entry lines of old values. Data lines carry the region's new
// (uncommitted) values. mutate edits the image before the state is sealed.
func synClosed(mutate func(img *memdev.Image)) *core.CrashState {
	img := memdev.NewImage()
	var dataLines []arch.LineAddr
	crc := uint32(0)
	for i := 0; i < wal.RecordEntries; i++ {
		dl := arch.LineAddr(synData + uint64(i)*arch.LineSize)
		dataLines = append(dataLines, dl)
		old := bytes.Repeat([]byte{byte(0x10 + i)}, arch.LineSize)
		img.Write(wal.EntryLine(arch.LineAddr(synBase), i), old)
		crc = wal.ChecksumUpdate(crc, old)
		img.Write(dl, bytes.Repeat([]byte{0xEE}, arch.LineSize)) // new value
	}
	img.Write(arch.LineAddr(synBase), wal.EncodeHeaderChecked(synRID, dataLines, crc))
	cs := &core.CrashState{
		Image: img,
		Deps:  []core.DepSnapshot{{RID: synRID}},
		Logs:  []core.LogExtent{{Thread: 0, Base: synBase, Size: synSize, Head: 0, Tail: wal.RecordBytes}},
	}
	if mutate != nil {
		mutate(img)
	}
	return cs
}

// synOpen builds a crash state where the region's record is still open:
// undo material lives in the flushed LH-WPQ header, the header slot was
// never written. n entries were accepted.
func synOpen(n int, mutate func(cs *core.CrashState)) *core.CrashState {
	img := memdev.NewImage()
	h := &memdev.LogHeader{RID: synRID, HeaderAddr: arch.LineAddr(synBase)}
	for i := 0; i < n; i++ {
		dl := arch.LineAddr(synData + uint64(i)*arch.LineSize)
		old := bytes.Repeat([]byte{byte(0x10 + i)}, arch.LineSize)
		ll := wal.EntryLine(arch.LineAddr(synBase), i)
		img.Write(ll, old)
		img.Write(dl, bytes.Repeat([]byte{0xEE}, arch.LineSize))
		h.DataLines = append(h.DataLines, dl)
		h.LogLines = append(h.LogLines, ll)
		h.EntryCRCs = append(h.EntryCRCs, wal.Checksum(old))
		h.PayloadCRC = wal.ChecksumUpdate(h.PayloadCRC, old)
	}
	cs := &core.CrashState{
		Image:   img,
		Headers: []*memdev.LogHeader{h},
		Deps:    []core.DepSnapshot{{RID: synRID}},
		Logs:    []core.LogExtent{{Thread: 0, Base: synBase, Size: synSize, Head: 0, Tail: wal.RecordBytes}},
	}
	if mutate != nil {
		mutate(cs)
	}
	return cs
}

// corrupt flips one byte of a persisted line.
func corrupt(img *memdev.Image, line arch.LineAddr, off int) {
	buf := img.Read(line)
	buf[off] ^= 0xFF
	img.Write(line, buf)
}

func wantFatal(t *testing.T, cs *core.CrashState, class Class) *CorruptionError {
	t.Helper()
	_, err := RecoverWithOptions(cs, Options{})
	var cerr *CorruptionError
	if !errors.As(err, &cerr) {
		t.Fatalf("want *CorruptionError, got %v", err)
	}
	for _, c := range cerr.Fatal {
		if c.Severity != SeverityFatal {
			t.Errorf("non-fatal finding in CorruptionError: %v", c)
		}
	}
	if got := cerr.Fatal[0].Class; got != class {
		t.Fatalf("classified as %s, want %s (error: %v)", got, class, err)
	}
	return cerr
}

func TestTornHeaderIsFatal(t *testing.T) {
	cs := synClosed(func(img *memdev.Image) {
		corrupt(img, arch.LineAddr(synBase), 20) // entry address bytes; CRC now stale
	})
	wantFatal(t, cs, ClassTornHeader)
}

func TestTornHeaderMagicDestroyedIsFatal(t *testing.T) {
	// A tear short enough to destroy the magic byte leaves a line that no
	// longer even looks like a header; the live-slot rule must still call
	// it fatal rather than silently skipping the record.
	cs := synClosed(func(img *memdev.Image) {
		corrupt(img, arch.LineAddr(synBase), 8)
	})
	wantFatal(t, cs, ClassTornHeader)
}

func TestMissingHeaderIsFatal(t *testing.T) {
	// The header write was dropped and the slot was never used before:
	// the live slot reads as never-written.
	img := memdev.NewImage()
	cs := synClosed(nil)
	cs.Image.Lines(func(line arch.LineAddr, payload []byte) {
		if line != arch.LineAddr(synBase) {
			img.Write(line, payload)
		}
	})
	cs.Image = img
	wantFatal(t, cs, ClassMissingHeader)
}

func TestStaleHeaderAtLiveSlotIsFatal(t *testing.T) {
	// The header write was dropped over a freed slot still holding a
	// committed region's valid header: recovery must notice the RID is
	// not uncommitted and refuse.
	staleRID := arch.MakeRID(0, 3)
	cs := synClosed(func(img *memdev.Image) {
		img.Write(arch.LineAddr(synBase), wal.EncodeHeader(staleRID, []arch.LineAddr{arch.LineAddr(synData)}))
	})
	cerr := wantFatal(t, cs, ClassMissingHeader)
	if cerr.Fatal[0].RID != staleRID {
		t.Errorf("finding names %s, want the stale header's %s", cerr.Fatal[0].RID, staleRID)
	}
}

func TestTornDataEntryIsFatal(t *testing.T) {
	cs := synClosed(func(img *memdev.Image) {
		corrupt(img, wal.EntryLine(arch.LineAddr(synBase), 4), 11)
	})
	wantFatal(t, cs, ClassTornEntry)
}

func TestDroppedLPOClosedRecordIsFatal(t *testing.T) {
	cs := synClosed(nil)
	img := memdev.NewImage()
	gone := wal.EntryLine(arch.LineAddr(synBase), 3)
	cs.Image.Lines(func(line arch.LineAddr, payload []byte) {
		if line != gone {
			img.Write(line, payload)
		}
	})
	cs.Image = img
	cerr := wantFatal(t, cs, ClassMissingEntry)
	if cerr.Fatal[0].Line != gone {
		t.Errorf("finding at %#x, want %#x", uint64(cerr.Fatal[0].Line), uint64(gone))
	}
}

func TestDroppedLPOOpenRecordIsFatal(t *testing.T) {
	cs := synOpen(3, func(cs *core.CrashState) {
		img := memdev.NewImage()
		gone := wal.EntryLine(arch.LineAddr(synBase), 1)
		cs.Image.Lines(func(line arch.LineAddr, payload []byte) {
			if line != gone {
				img.Write(line, payload)
			}
		})
		cs.Image = img
	})
	wantFatal(t, cs, ClassMissingEntry)
}

func TestTornLPOOpenRecordIsFatal(t *testing.T) {
	cs := synOpen(3, func(cs *core.CrashState) {
		corrupt(cs.Image, wal.EntryLine(arch.LineAddr(synBase), 2), 33)
	})
	wantFatal(t, cs, ClassTornEntry)
}

func TestDroppedDPOIsAbsorbed(t *testing.T) {
	// The region's data-line write never persisted — recovery restores
	// the logged old value anyway, so a dropped DPO is not even visible.
	cs := synClosed(nil)
	img := memdev.NewImage()
	gone := arch.LineAddr(synData) // first data line
	cs.Image.Lines(func(line arch.LineAddr, payload []byte) {
		if line != gone {
			img.Write(line, payload)
		}
	})
	cs.Image = img
	rep, err := RecoverWithOptions(cs, Options{})
	if err != nil {
		t.Fatalf("dropped DPO must be recoverable: %v", err)
	}
	if rep.EntriesRestored != wal.RecordEntries {
		t.Fatalf("restored %d entries, want %d", rep.EntriesRestored, wal.RecordEntries)
	}
	want := bytes.Repeat([]byte{0x10}, arch.LineSize)
	if !bytes.Equal(cs.Image.Read(gone), want) {
		t.Fatal("data line not rolled back to the logged old value")
	}
}

func TestReorderedPersistsAreAbsorbed(t *testing.T) {
	// A reordered flush can leave a data line with any interleaving of
	// old and new bytes; rollback overwrites it with the logged value
	// regardless.
	cs := synClosed(func(img *memdev.Image) {
		img.Write(arch.LineAddr(synData+2*arch.LineSize), bytes.Repeat([]byte{0x77}, arch.LineSize))
	})
	rep, err := RecoverWithOptions(cs, Options{})
	if err != nil {
		t.Fatalf("reordered persists must be recoverable: %v", err)
	}
	if rep.LiveRecords != 1 || rep.RecordsScanned != 1 {
		t.Fatalf("report: %+v", rep)
	}
	want := bytes.Repeat([]byte{0x12}, arch.LineSize)
	if !bytes.Equal(cs.Image.Read(arch.LineAddr(synData+2*arch.LineSize)), want) {
		t.Fatal("data line not rolled back to the logged old value")
	}
}

func TestStaleCorruptionIsDiscardable(t *testing.T) {
	// Corrupt header-like bytes in freed log space (behind LogHead) are
	// provably stale: noted, discarded, and recovery proceeds.
	staleSlot := arch.LineAddr(synBase + 2*wal.RecordBytes)
	cs := synClosed(func(img *memdev.Image) {
		garbage := wal.EncodeHeader(arch.MakeRID(0, 2), []arch.LineAddr{arch.LineAddr(synData)})
		garbage[30] ^= 0xFF // break the CRC, keep the magic
		img.Write(staleSlot, garbage)
	})
	rep, err := RecoverWithOptions(cs, Options{})
	if err != nil {
		t.Fatalf("stale corruption must not block recovery: %v", err)
	}
	if len(rep.Discarded) != 1 {
		t.Fatalf("want 1 discarded finding, got %+v", rep.Discarded)
	}
	d := rep.Discarded[0]
	if d.Class != ClassStaleCorrupt || d.Severity != SeverityDiscardable || d.Line != staleSlot {
		t.Fatalf("bad discardable finding: %v", d)
	}
}

func TestSkipValidationResurrectsSilentSkips(t *testing.T) {
	// The same torn header that strict mode rejects is silently ignored
	// with validation off — the unhardened behavior the checker exists to
	// catch (the region's writes stay un-rolled-back).
	mutate := func(img *memdev.Image) { corrupt(img, arch.LineAddr(synBase), 8) }
	if _, err := RecoverWithOptions(synClosed(mutate), Options{}); err == nil {
		t.Fatal("strict mode accepted a torn header")
	}
	cs := synClosed(mutate)
	rep, err := RecoverWithOptions(cs, Options{SkipValidation: true})
	if err != nil {
		t.Fatalf("legacy mode errored: %v", err)
	}
	if rep.EntriesRestored != 0 {
		t.Fatalf("legacy mode restored %d entries from a record it cannot see", rep.EntriesRestored)
	}
	if !bytes.Equal(cs.Image.Read(arch.LineAddr(synData)), bytes.Repeat([]byte{0xEE}, arch.LineSize)) {
		t.Fatal("expected the uncommitted value to survive (the silent failure)")
	}
}

func TestImageUntouchedOnFatalCorruption(t *testing.T) {
	cs := synClosed(func(img *memdev.Image) {
		corrupt(img, wal.EntryLine(arch.LineAddr(synBase), 0), 5)
	})
	before := make(map[arch.LineAddr][]byte)
	cs.Image.Lines(func(line arch.LineAddr, payload []byte) {
		before[line] = append([]byte(nil), payload...)
	})
	if _, err := RecoverWithOptions(cs, Options{}); err == nil {
		t.Fatal("want fatal corruption")
	}
	n := 0
	cs.Image.Lines(func(line arch.LineAddr, payload []byte) {
		n++
		if !bytes.Equal(before[line], payload) {
			t.Errorf("line %#x modified despite fatal corruption", uint64(line))
		}
	})
	if n != len(before) {
		t.Errorf("image line count changed: %d -> %d", len(before), n)
	}
}

func TestMalformedCrashStateErrorsNotPanics(t *testing.T) {
	cases := []struct {
		name string
		cs   *core.CrashState
	}{
		{"nil image", &core.CrashState{}},
		{"nil header", &core.CrashState{Image: memdev.NewImage(), Headers: []*memdev.LogHeader{nil}}},
		{"header len mismatch", &core.CrashState{Image: memdev.NewImage(), Headers: []*memdev.LogHeader{
			{RID: synRID, DataLines: make([]arch.LineAddr, 2), LogLines: make([]arch.LineAddr, 1)}}}},
		{"oversized header", &core.CrashState{Image: memdev.NewImage(), Headers: []*memdev.LogHeader{
			{RID: synRID, DataLines: make([]arch.LineAddr, 9), LogLines: make([]arch.LineAddr, 9)}}}},
		{"crc len mismatch", &core.CrashState{Image: memdev.NewImage(), Headers: []*memdev.LogHeader{
			{RID: synRID, DataLines: make([]arch.LineAddr, 2), LogLines: make([]arch.LineAddr, 2), EntryCRCs: make([]uint32, 1)}}}},
		{"zero log size", &core.CrashState{Image: memdev.NewImage(), Logs: []core.LogExtent{{Size: 0}}}},
		{"ragged log size", &core.CrashState{Image: memdev.NewImage(), Logs: []core.LogExtent{{Size: 100}}}},
		{"tail before head", &core.CrashState{Image: memdev.NewImage(), Logs: []core.LogExtent{
			{Size: synSize, Head: 10 * wal.RecordBytes, Tail: wal.RecordBytes}}}},
		{"live beyond capacity", &core.CrashState{Image: memdev.NewImage(), Logs: []core.LogExtent{
			{Size: synSize, Head: 0, Tail: 9 * wal.RecordBytes}}}},
		{"extent wraps address space", &core.CrashState{Image: memdev.NewImage(), Logs: []core.LogExtent{
			{Base: ^uint64(0) - wal.RecordBytes, Size: synSize}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("Recover panicked: %v", p)
				}
			}()
			if _, err := RecoverWithOptions(tc.cs, Options{}); err == nil {
				t.Fatal("malformed crash state accepted")
			}
		})
	}
	// nil state
	if _, err := RecoverWithOptions(nil, Options{}); err == nil {
		t.Fatal("nil crash state accepted")
	}
}

func TestCorruptionErrorMessage(t *testing.T) {
	cs := synClosed(func(img *memdev.Image) {
		corrupt(img, arch.LineAddr(synBase), 20)
	})
	_, err := RecoverWithOptions(cs, Options{})
	if err == nil {
		t.Fatal("want error")
	}
	msg := err.Error()
	for _, want := range []string{"torn-header", "fatal", fmt.Sprintf("%#x", synBase)} {
		if !bytes.Contains([]byte(msg), []byte(want)) {
			t.Errorf("error %q missing %q", msg, want)
		}
	}
}
