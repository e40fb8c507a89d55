package faults

import (
	"bytes"
	"reflect"
	"testing"

	"asap/internal/arch"
	"asap/internal/memdev"
)

func entry(kind memdev.Kind, rid arch.RID, dst arch.LineAddr, fill byte) *memdev.Entry {
	payload := bytes.Repeat([]byte{fill}, int(arch.LineSize))
	return &memdev.Entry{Kind: kind, RID: rid, Dst: dst, Payload: payload}
}

// drive pushes a fixed entry stream through an injector the way a crash
// flush would, returning the surviving image content per line.
func drive(in *Injector, entries []*memdev.Entry) map[arch.LineAddr][]byte {
	img := memdev.NewImage()
	order := in.FlushOrder(0, entries)
	if order == nil {
		order = make([]int, len(entries))
		for i := range order {
			order[i] = i
		}
	}
	out := make(map[arch.LineAddr][]byte)
	for _, i := range order {
		e := entries[i]
		if payload, persist := in.FlushPayload(0, e, img.Read(e.Dst)); persist {
			img.Write(e.Dst, payload)
			out[e.Dst] = img.Read(e.Dst)
		}
	}
	return out
}

func testEntries() []*memdev.Entry {
	return []*memdev.Entry{
		entry(memdev.KindLPO, 1, 0x1000, 0x11),
		entry(memdev.KindDPO, 1, 0x2000, 0x22),
		entry(memdev.KindLogHeader, 2, 0x3000, 0x33),
		entry(memdev.KindLPO, 2, 0x4000, 0x44),
		entry(memdev.KindDPO, 3, 0x5000, 0x55),
	}
}

func TestSameSeedSameEvents(t *testing.T) {
	mix := Mix{TornPct: 0.4, DropPct: 0.3, ReorderPct: 0.5}
	a := New(7, mix)
	b := New(7, mix)
	drive(a, testEntries())
	drive(b, testEntries())
	if !reflect.DeepEqual(a.Events(), b.Events()) {
		t.Fatalf("same seed diverged:\n%v\nvs\n%v", a.Events(), b.Events())
	}
	c := New(8, mix)
	drive(c, testEntries())
	if reflect.DeepEqual(a.Events(), c.Events()) {
		t.Fatalf("different seeds produced identical events %v", a.Events())
	}
}

func TestReplayReproducesDamage(t *testing.T) {
	mix := Mix{TornPct: 0.5, DropPct: 0.3}
	rec := New(3, mix)
	want := drive(rec, testEntries())
	if len(rec.Events()) == 0 {
		t.Fatal("recording run injected nothing; pick another seed")
	}
	rep := Replay(rec.Events())
	got := drive(rep, testEntries())
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("replay image differs from recorded image")
	}
}

func TestReplaySubsetAppliesOnlyChosenEvents(t *testing.T) {
	rec := New(3, Mix{DropPct: 0.9})
	drive(rec, testEntries())
	evs := rec.Events()
	if len(evs) < 2 {
		t.Fatalf("want >=2 drops, got %v", evs)
	}
	// Replay only the first drop: every other entry must persist intact.
	rep := Replay(evs[:1])
	got := drive(rep, testEntries())
	dropped := evs[0].Line
	if _, ok := got[dropped]; ok {
		t.Fatalf("line %#x persisted despite replayed drop", uint64(dropped))
	}
	for _, e := range testEntries() {
		if e.Dst == dropped {
			continue
		}
		buf, ok := got[e.Dst]
		if !ok || !bytes.Equal(buf, e.Payload) {
			t.Fatalf("line %#x damaged outside the replayed subset", uint64(e.Dst))
		}
	}
}

func TestTornWriteSemantics(t *testing.T) {
	in := New(1, Mix{})
	e := entry(memdev.KindLPO, 1, 0x1000, 0xAB)
	current := bytes.Repeat([]byte{0xCD}, int(arch.LineSize))
	got := tear(e.Payload, current, 10)
	for i := 0; i < int(arch.LineSize); i++ {
		want := byte(0xCD)
		if i < 10 {
			want = 0xAB
		}
		if got[i] != want {
			t.Fatalf("byte %d = %#x, want %#x", i, got[i], want)
		}
	}
	_ = in
}

func TestScopeRestrictsTargets(t *testing.T) {
	in := New(5, Mix{DropPct: 1.0})
	in.SetScope([]arch.RID{2})
	got := drive(in, testEntries())
	for _, e := range testEntries() {
		_, persisted := got[e.Dst]
		if e.RID == 2 && persisted {
			t.Fatalf("in-scope line %#x survived DropPct=1", uint64(e.Dst))
		}
		if e.RID != 2 && !persisted {
			t.Fatalf("out-of-scope line %#x was dropped", uint64(e.Dst))
		}
	}
	for _, ev := range in.Events() {
		if ev.RID != 2 {
			t.Fatalf("event outside scope: %v", ev)
		}
	}
}

func TestReorderReversesScopedEntries(t *testing.T) {
	in := New(1, Mix{ReorderPct: 1.0})
	entries := testEntries()
	order := in.FlushOrder(0, entries)
	if order == nil {
		t.Fatal("ReorderPct=1 did not fire")
	}
	want := []int{4, 3, 2, 1, 0}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	// With a scope, out-of-scope entries keep their positions.
	in2 := New(1, Mix{ReorderPct: 1.0})
	in2.SetScope([]arch.RID{1})
	order2 := in2.FlushOrder(0, entries)
	want2 := []int{1, 0, 2, 3, 4} // rid-1 entries are 0,1 → reversed in place
	if !reflect.DeepEqual(order2, want2) {
		t.Fatalf("scoped order = %v, want %v", order2, want2)
	}
}

func TestFlipBitsDeterministicAndBounded(t *testing.T) {
	mkImg := func() *memdev.Image {
		img := memdev.NewImage()
		for addr := uint64(0x1000); addr < 0x1200; addr += arch.LineSize {
			img.Write(arch.LineAddr(addr), bytes.Repeat([]byte{0xFF}, int(arch.LineSize)))
		}
		img.Write(0x9000, bytes.Repeat([]byte{0xFF}, int(arch.LineSize)))
		return img
	}
	ranges := []Range{{Base: 0x1000, Size: 0x200}}
	a, b := New(11, Mix{BitFlips: 3}), New(11, Mix{BitFlips: 3})
	imgA, imgB := mkImg(), mkImg()
	a.FlipBits(imgA, ranges)
	b.FlipBits(imgB, ranges)
	if !reflect.DeepEqual(a.Events(), b.Events()) {
		t.Fatalf("bit flips diverged across identical seeds")
	}
	if len(a.Events()) != 3 {
		t.Fatalf("want 3 flip events, got %v", a.Events())
	}
	for _, ev := range a.Events() {
		if !ranges[0].Contains(ev.Line) {
			t.Fatalf("flip outside range: %v", ev)
		}
	}
	if !bytes.Equal(imgA.Read(0x9000), bytes.Repeat([]byte{0xFF}, int(arch.LineSize))) {
		t.Fatal("out-of-range line was damaged")
	}
	// Replay applies the same flips.
	imgC := mkImg()
	Replay(a.Events()).FlipBits(imgC, ranges)
	for addr := uint64(0x1000); addr < 0x1200; addr += arch.LineSize {
		if !bytes.Equal(imgA.Read(arch.LineAddr(addr)), imgC.Read(arch.LineAddr(addr))) {
			t.Fatalf("replayed flips differ at %#x", addr)
		}
	}
}

func testHeaders() []*memdev.LogHeader {
	return []*memdev.LogHeader{
		{RID: 1, HeaderAddr: 0x1000},
		{RID: 2, HeaderAddr: 0x2000},
		{RID: 3, HeaderAddr: 0x3000},
		{RID: 1, HeaderAddr: 0x4000},
	}
}

// driveHeaders consults the injector for each header the way the LH-WPQ
// crash snapshot does, returning the surviving set.
func driveHeaders(in *Injector) []*memdev.LogHeader {
	var kept []*memdev.LogHeader
	for _, h := range testHeaders() {
		if in.CrashHeader(0, h) {
			kept = append(kept, h)
		}
	}
	return kept
}

func TestCrashHeaderDropsAndRecords(t *testing.T) {
	in := New(9, Mix{LHDropPct: 1.0})
	if kept := driveHeaders(in); len(kept) != 0 {
		t.Fatalf("LHDropPct=1 kept %d headers", len(kept))
	}
	evs := in.Events()
	if len(evs) != len(testHeaders()) {
		t.Fatalf("want %d events, got %v", len(testHeaders()), evs)
	}
	for i, ev := range evs {
		want := testHeaders()[i]
		if ev.Class != HeaderDrop || ev.RID != want.RID || ev.Line != want.HeaderAddr {
			t.Fatalf("event %d = %v, want lhdrop of %s at %#x", i, ev, want.RID, uint64(want.HeaderAddr))
		}
	}
	// Zero mix never drops.
	if kept := driveHeaders(New(9, Mix{})); len(kept) != len(testHeaders()) {
		t.Fatal("zero mix dropped a header")
	}
}

func TestCrashHeaderScopeAndReplay(t *testing.T) {
	rec := New(9, Mix{LHDropPct: 1.0})
	rec.SetScope([]arch.RID{1})
	kept := driveHeaders(rec)
	if len(kept) != 2 || kept[0].RID != 2 || kept[1].RID != 3 {
		t.Fatalf("scope [1] kept %v", kept)
	}
	for _, ev := range rec.Events() {
		if ev.RID != 1 {
			t.Fatalf("event outside scope: %v", ev)
		}
	}
	// Replay drops exactly the recorded headers, nothing else.
	rep := Replay(rec.Events())
	kept2 := driveHeaders(rep)
	if !reflect.DeepEqual(kept, kept2) {
		t.Fatalf("replay survivors %v != recorded survivors %v", kept2, kept)
	}
	// Replaying only the first drop keeps the second rid-1 header.
	one := driveHeaders(Replay(rec.Events()[:1]))
	if len(one) != 3 || one[2].HeaderAddr != 0x4000 {
		t.Fatalf("partial replay kept %v", one)
	}
}

func TestParseMix(t *testing.T) {
	cases := []struct {
		in      string
		want    Mix
		wantErr bool
	}{
		{in: "none"},
		{in: ""},
		{in: "torn=0.2,drop=0.1", want: Mix{TornPct: 0.2, DropPct: 0.1}},
		{in: "lhdrop=0.4", want: Mix{LHDropPct: 0.4}},
		{in: "lhdrop=2", wantErr: true},
		{in: "reorder=1,flip=2", want: Mix{ReorderPct: 1, BitFlips: 2}},
		{in: "all", want: Mix{TornPct: 0.25, DropPct: 0.25, ReorderPct: 0.25, BitFlips: 1}},
		{in: "torn=2", wantErr: true},
		{in: "bogus=0.5", wantErr: true},
		{in: "torn", wantErr: true},
		{in: "flip=-1", wantErr: true},
	}
	for _, tc := range cases {
		got, err := ParseMix(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Errorf("ParseMix(%q): want error, got %+v", tc.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseMix(%q): %v", tc.in, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParseMix(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
		if tc.in != "" {
			back, err := ParseMix(got.String())
			if err != nil || !reflect.DeepEqual(back, got) {
				t.Errorf("round trip ParseMix(%q.String()=%q) = %+v, %v", tc.in, got.String(), back, err)
			}
		}
	}
}
