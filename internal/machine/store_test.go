package machine

import (
	"testing"

	"asap/internal/arch"
	"asap/internal/cache"
	"asap/internal/sim"
	"asap/internal/stats"
	"asap/internal/wal"
)

// TestStoreWalkOrder pins the walk's order: each line's access and clock
// advance come before its hook, the hook runs for persistent lines only,
// pack runs after the last line, and the heap sees the bytes only after
// pack.
func TestStoreWalkOrder(t *testing.T) {
	m := New(DefaultConfig())
	pm := m.Heap.Alloc(3*arch.LineSize, true)
	dram := m.Heap.Alloc(arch.LineSize, false)
	data := make([]byte, 3*arch.LineSize)
	for i := range data {
		data[i] = 0xAB
	}
	var events []string
	m.K.Spawn("w", func(th *sim.Thread) {
		seen := func(what string) {
			if m.Heap.ReadU64(pm) != 0 {
				t.Errorf("%s ran after the heap write", what)
			}
			events = append(events, what)
		}
		var last uint64
		m.Store(th, pm, data, func(line arch.LineAddr, meta *cache.Meta) {
			if th.Now() <= last || meta == nil {
				t.Errorf("line %#x: hook before its access (clock %d, meta %v)", line, th.Now(), meta)
			}
			last = th.Now()
			seen("line")
		}, func() { seen("pack") })
		m.Store(th, dram, data[:8], func(arch.LineAddr, *cache.Meta) { seen("dram line") }, nil)
	})
	m.K.MustRun()
	if got := len(events); got != 4 || events[3] != "pack" {
		t.Fatalf("events = %v, want three persistent lines then pack", events)
	}
	if got := m.Heap.ReadU64(pm + 2*arch.LineSize); got != 0xABABABABABABABAB {
		t.Fatalf("last line = %#x, want the stored bytes", got)
	}
}

// TestAllocRecordOverflow: a full log raises the overflow exception (one
// count, the penalty on the thread's clock, a Grow), and a LogEnd taken
// before the Grow frees nothing in the new buffer.
func TestAllocRecordOverflow(t *testing.T) {
	m := New(DefaultConfig())
	log := wal.NewThreadLog(m.Heap, wal.RecordBytes)
	m.K.Spawn("w", func(th *sim.Thread) {
		_, first := m.AllocRecord(th, nil, log)
		before := th.Now()
		_, second := m.AllocRecord(th, nil, log)
		if th.Now()-before != 2000 {
			t.Errorf("overflow stalled %d cycles, want 2000", th.Now()-before)
		}
		if first.Epoch != 0 || second.Epoch != 1 {
			t.Errorf("epochs %d, %d; want 0, 1", first.Epoch, second.Epoch)
		}
		first.Free(log)
		if log.Live() != wal.RecordBytes {
			t.Errorf("stale LogEnd freed the new buffer: %d live bytes", log.Live())
		}
		second.Free(log)
		if log.Live() != 0 {
			t.Errorf("%d live bytes after freeing the current LogEnd", log.Live())
		}
	})
	m.K.MustRun()
	if got := m.St.Get(stats.LogOverflows); got != 1 {
		t.Fatalf("log overflows = %d, want 1", got)
	}
}
