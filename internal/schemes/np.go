package schemes

import (
	"asap/internal/machine"
	"asap/internal/sim"
)

// NP is the no-persistency upper bound: data lives in persistent memory
// (reads and dirty evictions touch the PM device) but no LPOs or DPOs are
// ever performed and regions carry no commit semantics.
type NP struct {
	base
	threads map[int]*nesting
}

// NewNP builds the NP baseline on m.
func NewNP(m *machine.Machine) *NP {
	np := &NP{base: base{m: m}, threads: make(map[int]*nesting)}
	m.Caches.SetEvictHook(np.evictWriteback)
	return np
}

// Name implements machine.Scheme.
func (s *NP) Name() string { return "NP" }

// InitThread implements machine.Scheme.
func (s *NP) InitThread(t *sim.Thread) {
	s.threads[t.ID()] = &nesting{}
	t.Advance(50)
}

// Begin implements machine.Scheme (latency accounting only).
func (s *NP) Begin(t *sim.Thread) {
	if s.begin(t, s.threads[t.ID()]) {
		t.Advance(1)
	}
}

// End implements machine.Scheme.
func (s *NP) End(t *sim.Thread) {
	if n := s.threads[t.ID()]; s.end(t, n) {
		t.Advance(1)
		s.account(t, n, true)
	}
}

// Store implements machine.Scheme. NP keeps machine.Access, which
// advances once per store: a per-line walk would move its cycles.
func (s *NP) Store(t *sim.Thread, addr uint64, data []byte) {
	s.m.Access(t, addr, len(data), true, nil)
	s.m.Heap.Write(addr, data)
}
