package wal

import (
	"encoding/binary"
	"errors"
	"reflect"
	"testing"
	"testing/quick"

	"asap/internal/arch"
	"asap/internal/heap"
)

func TestAllocRecordContiguity(t *testing.T) {
	h := heap.New()
	l := NewThreadLog(h, 4*RecordBytes)
	hdr, end, ok := l.AllocRecord()
	if !ok {
		t.Fatal("alloc failed on empty log")
	}
	if uint64(hdr) != l.Base() {
		t.Fatalf("first header at %#x, want base %#x", hdr, l.Base())
	}
	if end != RecordBytes {
		t.Fatalf("end = %d, want %d", end, RecordBytes)
	}
	for i := 0; i < RecordEntries; i++ {
		want := arch.LineAddr(uint64(hdr) + uint64((i+1)*arch.LineSize))
		if got := EntryLine(hdr, i); got != want {
			t.Fatalf("EntryLine(%d) = %#x, want %#x", i, got, want)
		}
	}
}

func TestAllocUntilFullThenFree(t *testing.T) {
	h := heap.New()
	l := NewThreadLog(h, 2*RecordBytes)
	var ends []uint64
	for i := 0; i < 2; i++ {
		_, end, ok := l.AllocRecord()
		if !ok {
			t.Fatalf("alloc %d failed", i)
		}
		ends = append(ends, end)
	}
	if _, _, ok := l.AllocRecord(); ok {
		t.Fatal("alloc must fail when full")
	}
	l.FreeUpTo(ends[0])
	if _, _, ok := l.AllocRecord(); !ok {
		t.Fatal("alloc must succeed after freeing one record")
	}
}

func TestCircularReuseSameAddresses(t *testing.T) {
	h := heap.New()
	l := NewThreadLog(h, 2*RecordBytes)
	h1, e1, _ := l.AllocRecord()
	_, e2, _ := l.AllocRecord()
	l.FreeUpTo(e1)
	l.FreeUpTo(e2)
	h3, _, ok := l.AllocRecord()
	if !ok || h3 != h1 {
		t.Fatalf("wrapped alloc = %#x, want reuse of %#x", h3, h1)
	}
}

func TestGrowAfterOverflow(t *testing.T) {
	h := heap.New()
	l := NewThreadLog(h, RecordBytes)
	l.AllocRecord()
	if _, _, ok := l.AllocRecord(); ok {
		t.Fatal("expected overflow")
	}
	oldBase := l.Base()
	l.Grow()
	if l.Size() != 2*RecordBytes {
		t.Fatalf("grown size = %d", l.Size())
	}
	if l.Base() == oldBase {
		t.Fatal("grow must allocate a fresh buffer")
	}
	if l.Overflows() != 1 {
		t.Fatalf("overflows = %d", l.Overflows())
	}
	if _, _, ok := l.AllocRecord(); !ok {
		t.Fatal("alloc must work after grow")
	}
}

func TestFreeIdempotentAndMonotone(t *testing.T) {
	h := heap.New()
	l := NewThreadLog(h, 4*RecordBytes)
	_, e1, _ := l.AllocRecord()
	_, e2, _ := l.AllocRecord()
	l.FreeUpTo(e2)
	l.FreeUpTo(e1) // going backwards must be a no-op
	if l.Head() != e2 {
		t.Fatalf("head = %d, want %d", l.Head(), e2)
	}
	l.FreeUpTo(e2 + 100*RecordBytes) // cannot free past tail
	if l.Head() != l.Tail() {
		t.Fatal("head clamped to tail")
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	f := func(tid uint8, local uint32, rawLines []uint32) bool {
		if local == 0 {
			local = 1
		}
		if len(rawLines) > RecordEntries {
			rawLines = rawLines[:RecordEntries]
		}
		if len(rawLines) == 0 {
			rawLines = []uint32{1}
		}
		rid := arch.MakeRID(int(tid), uint64(local))
		var lines []arch.LineAddr
		for _, r := range rawLines {
			lines = append(lines, arch.LineAddr(uint64(r)*arch.LineSize))
		}
		h, err := ParseHeader(EncodeHeader(rid, lines))
		return err == nil && h.RID == rid && reflect.DeepEqual(h.DataLines, lines)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeRejectsMalformedHeaders is the table of malformed header
// lines ParseHeader must reject and classify. Before the checksum was
// added, any garbage line with 0xA5 at byte 8 and a plausible count
// parsed as a valid header.
func TestDecodeRejectsMalformedHeaders(t *testing.T) {
	valid := func() []byte {
		return EncodeHeaderChecked(arch.MakeRID(2, 9), []arch.LineAddr{64, 128, 192}, 0xDEADBEEF)
	}
	cases := []struct {
		name    string
		line    func() []byte
		wantErr error
	}{
		{"zero line", func() []byte { return make([]byte, arch.LineSize) }, ErrNotHeader},
		{"short line", func() []byte { return []byte{1, 2, 3} }, ErrShortLine},
		{"magic only, garbage elsewhere", func() []byte {
			b := make([]byte, arch.LineSize)
			b[8] = 0xA5
			b[0] = 7 // plausible RID
			b[9] = 2 // plausible count
			return b
		}, ErrChecksum},
		{"count zero", func() []byte {
			b := valid()
			b[9] = 0
			crcPatch(b)
			return b
		}, ErrBadCount},
		{"count too large", func() []byte {
			b := valid()
			b[9] = RecordEntries + 1
			crcPatch(b)
			return b
		}, ErrBadCount},
		{"no-region RID", func() []byte {
			b := valid()
			for i := 0; i < 8; i++ {
				b[i] = 0
			}
			crcPatch(b)
			return b
		}, ErrBadRID},
		{"reserved byte 14 set", func() []byte {
			b := valid()
			b[14] = 1
			crcPatch(b)
			return b
		}, ErrReserved},
		{"reserved byte 15 set", func() []byte {
			b := valid()
			b[15] = 0x55
			crcPatch(b)
			return b
		}, ErrReserved},
		{"unknown flag bits", func() []byte {
			b := valid()
			b[62] |= 0x80
			crcPatch(b)
			return b
		}, ErrReserved},
		{"reserved byte 63 set", func() []byte {
			b := valid()
			b[63] = 0xFF
			crcPatch(b)
			return b
		}, ErrReserved},
		{"flipped RID bit", func() []byte {
			b := valid()
			b[3] ^= 0x10
			return b
		}, ErrChecksum},
		{"flipped entry-address bit", func() []byte {
			b := valid()
			b[20] ^= 0x01
			return b
		}, ErrChecksum},
		{"torn mid-line (tail zeroed)", func() []byte {
			b := valid()
			for i := 24; i < arch.LineSize; i++ {
				b[i] = 0
			}
			return b
		}, ErrChecksum},
		{"flipped payload-CRC bit", func() []byte {
			b := valid()
			b[59] ^= 0x04
			return b
		}, ErrChecksum},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParseHeader(tc.line()); !errors.Is(err, tc.wantErr) {
				t.Fatalf("ParseHeader error = %v, want %v", err, tc.wantErr)
			}
		})
	}
}

// crcPatch recomputes the header CRC in place so a test can exercise the
// non-checksum validation rules in isolation.
func crcPatch(b []byte) {
	binary.LittleEndian.PutUint32(b[crcOff:], headerChecksum(b))
}

func TestPayloadCRCRoundTrip(t *testing.T) {
	crc := ChecksumUpdate(0, make([]byte, arch.LineSize))
	crc = ChecksumUpdate(crc, []byte{1, 2, 3})
	buf := EncodeHeaderChecked(arch.MakeRID(1, 4), []arch.LineAddr{256}, crc)
	h, err := ParseHeader(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !h.HasPayloadCRC || h.PayloadCRC != crc {
		t.Fatalf("payload CRC = (%v, %#x), want (true, %#x)", h.HasPayloadCRC, h.PayloadCRC, crc)
	}
	plain, err := ParseHeader(EncodeHeader(arch.MakeRID(1, 4), []arch.LineAddr{256}))
	if err != nil {
		t.Fatal(err)
	}
	if plain.HasPayloadCRC {
		t.Fatal("EncodeHeader must not claim a payload CRC")
	}
}

// TestLegacyDecodeAcceptsWhatStrictRejects pins the exact weakness the
// checksum closes: garbage with a magic byte and plausible count parses
// under the legacy decode but not the strict one.
func TestLegacyDecodeAcceptsWhatStrictRejects(t *testing.T) {
	b := make([]byte, arch.LineSize)
	b[0] = 9 // nonzero RID
	b[8] = 0xA5
	b[9] = 3
	if _, _, ok := DecodeHeaderLegacy(b); !ok {
		t.Fatal("legacy decode should accept the garbage line")
	}
	if _, err := ParseHeader(b); err == nil {
		t.Fatal("strict decode must reject the garbage line")
	}
}

func TestLiveRecordSlots(t *testing.T) {
	h := heap.New()
	l := NewThreadLog(h, 3*RecordBytes)
	var want []arch.LineAddr
	for i := 0; i < 3; i++ {
		hdr, _, ok := l.AllocRecord()
		if !ok {
			t.Fatalf("alloc %d failed", i)
		}
		want = append(want, hdr)
	}
	got := LiveRecordSlots(l.Base(), l.Size(), l.Head(), l.Tail())
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("live slots = %v, want %v", got, want)
	}

	// Free the first record: its slot leaves the live set.
	l.FreeUpTo(uint64(RecordBytes))
	got = LiveRecordSlots(l.Base(), l.Size(), l.Head(), l.Tail())
	if !reflect.DeepEqual(got, want[1:]) {
		t.Fatalf("after free, live slots = %v, want %v", got, want[1:])
	}

	// Wrap: the freed slot is reused and appears again, after the others.
	hdr, _, ok := l.AllocRecord()
	if !ok || hdr != want[0] {
		t.Fatalf("wrapped alloc = %#x, want %#x", hdr, want[0])
	}
	got = LiveRecordSlots(l.Base(), l.Size(), l.Head(), l.Tail())
	if !reflect.DeepEqual(got, append(append([]arch.LineAddr(nil), want[1:]...), want[0])) {
		t.Fatalf("after wrap, live slots = %v", got)
	}

	// Malformed inputs must not scan unboundedly.
	if s := LiveRecordSlots(0, 0, 0, 1); s != nil {
		t.Fatalf("size 0 yielded slots %v", s)
	}
	if s := LiveRecordSlots(0, RecordBytes, 10, 5); s != nil {
		t.Fatalf("tail<head yielded slots %v", s)
	}
	if s := LiveRecordSlots(0, RecordBytes, 0, 10*RecordBytes); s != nil {
		t.Fatalf("live>size yielded slots %v", s)
	}
}

// TestLiveRecordSlotsMirrorsWrapSkip checks the wrap-skip rule: when the
// tail skips the remainder of the buffer, the skipped bytes host no slot.
func TestLiveRecordSlotsMirrorsWrapSkip(t *testing.T) {
	h := heap.New()
	l := NewThreadLog(h, 2*RecordBytes)
	_, e1, _ := l.AllocRecord()
	l.AllocRecord()
	l.FreeUpTo(e1)
	// One live record at slot 1; allocate again — wraps to slot 0.
	hdr, _, ok := l.AllocRecord()
	if !ok {
		t.Fatal("wrap alloc failed")
	}
	got := LiveRecordSlots(l.Base(), l.Size(), l.Head(), l.Tail())
	want := []arch.LineAddr{arch.LineAddr(l.Base() + RecordBytes), hdr}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("live slots = %v, want %v", got, want)
	}
}

func TestEncodeTooManyEntriesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	lines := make([]arch.LineAddr, RecordEntries+1)
	EncodeHeader(arch.MakeRID(0, 1), lines)
}

func TestHighAddressSurvives48BitPacking(t *testing.T) {
	rid := arch.MakeRID(7, 9)
	line := arch.LineAddr(uint64(1)<<45 + 64)
	h, err := ParseHeader(EncodeHeader(rid, []arch.LineAddr{line}))
	if err != nil || h.DataLines[0] != line {
		t.Fatalf("got %v, %v, want %#x", h, err, line)
	}
}

// FuzzParseHeader feeds arbitrary lines to the strict header decoder,
// seeded from both encoders' output and a never-written line. It must
// never panic; a line it accepts must also pass the legacy decode with the
// same RID and data lines, and re-encoding the parsed header must give a
// line that parses to the same fields.
func FuzzParseHeader(f *testing.F) {
	lines := []arch.LineAddr{64, 128, arch.LineAddr(uint64(1)<<45 + 64)}
	f.Add(EncodeHeader(arch.MakeRID(1, 4), lines[:1]))
	f.Add(EncodeHeader(arch.MakeRID(7, 9), lines))
	f.Add(EncodeHeaderChecked(arch.MakeRID(2, 9), lines, 0xDEADBEEF))
	f.Add(EncodeHeaderChecked(arch.MakeRID(3, 1), make([]arch.LineAddr, RecordEntries), 0))
	f.Add(make([]byte, arch.LineSize))
	f.Fuzz(func(t *testing.T, line []byte) {
		h, err := ParseHeader(line)
		if err != nil {
			return
		}
		rid, dataLines, ok := DecodeHeaderLegacy(line)
		if !ok || rid != h.RID || !reflect.DeepEqual(dataLines, h.DataLines) {
			t.Fatalf("legacy decode = (%v, %v, %v), strict = %+v", rid, dataLines, ok, h)
		}
		re := EncodeHeader(h.RID, h.DataLines)
		if h.HasPayloadCRC {
			re = EncodeHeaderChecked(h.RID, h.DataLines, h.PayloadCRC)
		}
		h2, err := ParseHeader(re)
		if err != nil || !reflect.DeepEqual(h2, h) {
			t.Fatalf("re-encoded header parses to %+v, %v, want %+v", h2, err, h)
		}
	})
}
