package stats

import (
	"sync"
	"testing"
	"time"
)

func TestJobLogOrderAndAggregates(t *testing.T) {
	l := &JobLog{}
	l.Record(JobMetrics{Label: "a", WallNS: int64(2 * time.Millisecond)})
	l.Record(JobMetrics{Label: "b", WallNS: int64(5 * time.Millisecond)})
	l.Record(JobMetrics{Label: "c", WallNS: int64(1 * time.Millisecond)})

	snap := l.Snapshot()
	if len(snap) != 3 || snap[0].Label != "a" || snap[2].Label != "c" {
		t.Fatalf("snapshot order wrong: %+v", snap)
	}
	if l.Len() != 3 {
		t.Fatalf("Len: got %d", l.Len())
	}
	if got := l.TotalWall(); got != 8*time.Millisecond {
		t.Fatalf("TotalWall: got %v", got)
	}
	// Snapshot must be a copy, not an alias.
	snap[0].Label = "mutated"
	if l.Snapshot()[0].Label != "a" {
		t.Fatalf("Snapshot aliases internal state")
	}
}

func TestJobLogEmpty(t *testing.T) {
	l := &JobLog{}
	if l.TotalWall() != 0 || l.Len() != 0 || len(l.Snapshot()) != 0 {
		t.Fatalf("empty log aggregates must be zero")
	}
}

func TestJobLogConcurrentRecord(t *testing.T) {
	l := &JobLog{}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				l.Record(JobMetrics{Label: "x", WallNS: 1})
			}
		}()
	}
	wg.Wait()
	if l.Len() != 800 {
		t.Fatalf("lost records under concurrency: %d", l.Len())
	}
}
