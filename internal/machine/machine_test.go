package machine

import (
	"testing"
	"testing/quick"

	"asap/internal/arch"
	"asap/internal/sim"
)

// linesOf collects the lines VisitLines walks for [addr, addr+size).
func linesOf(addr uint64, size int) (out []arch.LineAddr) {
	VisitLines(addr, size, func(l arch.LineAddr) { out = append(out, l) })
	return out
}

func TestLinesOfSingleLine(t *testing.T) {
	lines := linesOf(100, 8)
	if len(lines) != 1 || lines[0] != 64 {
		t.Fatalf("LinesOf(100,8) = %v", lines)
	}
}

func TestLinesOfSpansBoundary(t *testing.T) {
	lines := linesOf(60, 8) // bytes 60..67 cross line 0 into line 1
	if len(lines) != 2 || lines[0] != 0 || lines[1] != 64 {
		t.Fatalf("LinesOf(60,8) = %v", lines)
	}
}

func TestLinesOfLargeSpan(t *testing.T) {
	lines := linesOf(64, 2048)
	if len(lines) != 32 {
		t.Fatalf("2KB from line start should touch 32 lines, got %d", len(lines))
	}
}

func TestLinesOfZeroSize(t *testing.T) {
	lines := linesOf(128, 0)
	if len(lines) != 1 {
		t.Fatalf("zero-size access still touches one line, got %v", lines)
	}
}

func TestLinesOfCoversEveryByte(t *testing.T) {
	f := func(off uint16, size uint8) bool {
		addr := uint64(off)
		n := int(size)
		if n == 0 {
			n = 1
		}
		lines := linesOf(addr, n)
		set := map[arch.LineAddr]bool{}
		for _, l := range lines {
			set[l] = true
		}
		for i := 0; i < n; i++ {
			if !set[arch.LineOf(addr+uint64(i))] {
				return false
			}
		}
		// And no extra lines.
		return len(lines) == len(set) && len(set) <= n/arch.LineSize+2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCoreOfDefaultsAndMigration(t *testing.T) {
	m := New(Config{Cores: 4})
	var got [3]int
	m.K.Spawn("a", func(th *sim.Thread) {
		got[0] = m.CoreOf(th)
		m.SetCore(th, 3)
		got[1] = m.CoreOf(th)
	})
	m.K.Spawn("b", func(th *sim.Thread) {
		th.Advance(10)
		got[2] = m.CoreOf(th)
	})
	m.K.MustRun()
	if got[0] != 0 || got[1] != 3 || got[2] != 1 {
		t.Fatalf("cores = %v, want [0 3 1]", got)
	}
}

func TestSetCoreOutOfRangePanics(t *testing.T) {
	m := New(Config{Cores: 2})
	m.K.Spawn("a", func(th *sim.Thread) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		m.SetCore(th, 7)
	})
	m.K.MustRun()
}

func TestDefaultsFilledIn(t *testing.T) {
	m := New(Config{})
	if m.Cfg.Cores != 18 {
		t.Fatalf("default cores = %d", m.Cfg.Cores)
	}
	if m.Cfg.Mem.WPQEntries != 128 {
		t.Fatalf("default WPQ = %d", m.Cfg.Mem.WPQEntries)
	}
	if m.Caches == nil || m.Fabric == nil || m.Heap == nil {
		t.Fatal("machine not fully assembled")
	}
}

func TestAccessChargesLatencyAndTouches(t *testing.T) {
	m := New(Config{Cores: 2})
	addr := m.Heap.Alloc(128, true)
	var touched []arch.LineAddr
	var elapsed uint64
	m.K.Spawn("a", func(th *sim.Thread) {
		start := th.Now()
		m.Access(th, addr, 128, true, func(l arch.LineAddr) { touched = append(touched, l) })
		elapsed = th.Now() - start
	})
	m.K.MustRun()
	if len(touched) != 2 {
		t.Fatalf("touched %d lines, want 2", len(touched))
	}
	if elapsed == 0 {
		t.Fatal("no latency charged")
	}
}
