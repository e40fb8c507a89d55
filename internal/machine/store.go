package machine

import (
	"asap/internal/arch"
	"asap/internal/cache"
	"asap/internal/obs"
	"asap/internal/sim"
	"asap/internal/wal"
)

// Store is the store walk every logging scheme shares. For each line of
// [addr, addr+len(data)), in ascending order, it makes a blocking cache
// access for t, advances t by the access latency, for a persistent line
// calls line with the line's metadata, and writes the line's part of
// data to the heap. The write lands before the next line's access, which
// may yield: a persist of this line issued meanwhile (a DPO) must copy
// the new bytes. Then it calls pack (redo word packing, which may
// yield). line and pack may be nil; neither is retained.
func (m *Machine) Store(t *sim.Thread, addr uint64, data []byte, line func(arch.LineAddr, *cache.Meta), pack func()) {
	core := m.CoreOf(t)
	first, last := lineSpan(addr, len(data))
	for l := first; ; l += arch.LineSize {
		lat, meta := m.Caches.AccessBlocking(t, core, l, true)
		t.Advance(lat)
		if line != nil && m.Heap.IsPersistentLine(l) {
			line(l, meta)
		}
		n := min(uint64(l)+arch.LineSize-addr, uint64(len(data)))
		m.Heap.Write(addr, data[:n])
		addr, data = addr+n, data[n:]
		if l >= last {
			break
		}
	}
	if pack != nil {
		pack()
	}
}

// LogEnd is the free point after a region's last log record: the offset
// FreeUpTo takes and the log's Grow count when it was taken. Offsets
// compare against a log's head and tail only while the epoch matches.
// The zero LogEnd frees nothing.
type LogEnd struct {
	Off   uint64
	Epoch int
}

// overflowPenalty is the log-overflow exception cost in cycles.
const overflowPenalty = 2000

// AllocRecord reserves one record in t's log. A full log raises the
// log-overflow exception (§4.4): it is counted, t stalls for
// overflowPenalty cycles charged to obs.LogOverflow, and the log grows. t
// is nil in event context, where nothing stalls.
func (m *Machine) AllocRecord(t *sim.Thread, prof *obs.Profiler, log *wal.ThreadLog) (arch.LineAddr, LogEnd) {
	header, end, ok := log.AllocRecord()
	if !ok {
		*m.Cells.LogOverflows++
		if t != nil {
			prof.Stall(t, obs.LogOverflow, overflowPenalty)
		}
		log.Grow()
		if header, end, ok = log.AllocRecord(); !ok {
			panic("machine: log allocation failed after grow")
		}
	}
	return header, LogEnd{Off: end, Epoch: log.Overflows()}
}

// Free releases log up to e. A Grow since e was taken reset the log's
// head and tail, so a stale offset would free records that later regions
// allocated in the new buffer; it frees nothing instead (the abandoned
// buffer is dead once its live regions commit).
func (e LogEnd) Free(log *wal.ThreadLog) {
	if e.Epoch == log.Overflows() {
		log.FreeUpTo(e.Off)
	}
}
