package machine

import (
	"testing"

	"asap/internal/arch"
)

// BenchmarkNewRelease is an experiment cell's fixed machine cost: build
// the Table 2 machine, let five cores touch their caches (a quick-scale
// cell's driver and four workers), then release it, or leave it to the
// garbage collector as a machine that is never released. Run:
//
//	go test -run '^$' -bench NewRelease -benchmem ./internal/machine
func BenchmarkNewRelease(b *testing.B) {
	for _, release := range []bool{true, false} {
		name := "unreleased"
		if release {
			name = "released"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m := New(DefaultConfig())
				for core := 0; core < 5; core++ {
					m.Caches.Access(core, arch.LineAddr(core*arch.LineSize), true)
				}
				if release {
					m.Release()
				}
			}
		})
	}
}
