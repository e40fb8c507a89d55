package heap

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"

	"asap/internal/arch"
)

func TestAllocAlignmentAndWindows(t *testing.T) {
	h := New()
	p := h.Alloc(10, true)
	if p%arch.LineSize != 0 {
		t.Fatalf("persistent alloc %#x not line-aligned", p)
	}
	if !h.IsPersistentAddr(p) {
		t.Fatal("persistent alloc outside persistent window")
	}
	v := h.Alloc(10, false)
	if h.IsPersistentAddr(v) {
		t.Fatal("volatile alloc inside persistent window")
	}
}

func TestAllocDistinct(t *testing.T) {
	h := New()
	a := h.Alloc(64, true)
	b := h.Alloc(64, true)
	if a == b {
		t.Fatal("overlapping allocations")
	}
	if b-a < 64 {
		t.Fatalf("allocations too close: %#x %#x", a, b)
	}
}

func TestFreeRecyclesPersistent(t *testing.T) {
	h := New()
	a := h.Alloc(100, true)
	h.Write(a, []byte{1, 2, 3})
	h.Free(a)
	b := h.Alloc(100, true)
	if a != b {
		t.Fatalf("free list not recycled: %#x then %#x", a, b)
	}
	// Recycled memory keeps its old contents (malloc semantics): zeroing
	// would be an unlogged persistent write, invisible to the WAL.
	buf := make([]byte, 3)
	h.Read(b, buf)
	if !bytes.Equal(buf, []byte{1, 2, 3}) {
		t.Fatal("recycled allocation unexpectedly scrubbed")
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	h := New()
	f := func(off uint16, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		addr := PersistentBase + uint64(off)
		h.Write(addr, data)
		got := make([]byte, len(data))
		h.Read(addr, got)
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCrossPageWrite(t *testing.T) {
	h := New()
	addr := PersistentBase + pageSize - 4
	data := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	h.Write(addr, data)
	got := make([]byte, 8)
	h.Read(addr, got)
	if !bytes.Equal(got, data) {
		t.Fatalf("cross-page round trip: got %v", got)
	}
}

func TestU64Helpers(t *testing.T) {
	h := New()
	addr := h.Alloc(8, true)
	h.Write(addr, binary.LittleEndian.AppendUint64(nil, 0xdeadbeefcafe))
	if got := h.ReadU64(addr); got != 0xdeadbeefcafe {
		t.Fatalf("ReadU64 = %#x", got)
	}
}

func TestReadLine(t *testing.T) {
	h := New()
	addr := h.Alloc(64, true)
	h.Write(addr+8, []byte{42})
	lineBuf := make([]byte, arch.LineSize)
	h.ReadLineInto(arch.LineOf(addr+8), lineBuf)
	if got := lineBuf[8]; got != 42 {
		t.Fatalf("ReadLineInto byte 8 = %d, want 42", got)
	}
}

func TestIsPersistentLine(t *testing.T) {
	h := New()
	if h.IsPersistentLine(arch.LineAddr(PersistentBase - 64)) {
		t.Fatal("line below window marked persistent")
	}
	if !h.IsPersistentLine(arch.LineAddr(PersistentBase)) {
		t.Fatal("first persistent line not marked")
	}
	if h.IsPersistentLine(arch.LineAddr(VolatileBase)) {
		t.Fatal("volatile base marked persistent")
	}
}

func TestSizeOf(t *testing.T) {
	h := New()
	a := h.Alloc(100, true)
	if h.sizes[a] != 128 {
		t.Fatalf("size class = %d, want 128 (rounded to lines)", h.sizes[a])
	}
	h.Free(a)
	if h.sizes[a] != 0 {
		t.Fatal("size class after free should be 0")
	}
}

func TestZeroSizeAlloc(t *testing.T) {
	h := New()
	a := h.Alloc(0, true)
	b := h.Alloc(0, true)
	if a == b {
		t.Fatal("zero-size allocations must still be distinct")
	}
}
