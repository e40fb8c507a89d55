package memdev

import (
	"testing"

	"asap/internal/arch"
)

// BenchmarkPersistDrain is one persist's whole life in the memory system:
// submit, WPQ acceptance and the device write into the PM image. Batches
// of 1024 overfill the four 128-entry WPQs, so most entries also wait in
// an arrival queue, as they do on the 2 KB paper cells. The 4096 target
// lines repeat, so the image stops growing after the first batches. Run:
//
//	go test -run '^$' -bench PersistDrain -benchmem ./internal/memdev
func BenchmarkPersistDrain(b *testing.B) {
	k, _, f := testFabric(DefaultConfig())
	data := payload(7)
	const batch = 1024
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := f.NewEntry(KindDPO, 0, arch.LineAddr(i%4096*arch.LineSize), 0)
		e.SetPayload(data)
		f.SubmitPersist(e, nil)
		if i%batch == batch-1 || i == b.N-1 {
			if err := k.Run(); err != nil {
				b.Fatal(err)
			}
		}
	}
}
