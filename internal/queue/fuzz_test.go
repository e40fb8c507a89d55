package queue

import (
	"bytes"
	"encoding/hex"
	"testing"
)

// fuzzSegmentHex is TestOnDiskGolden's journal segment: a file header,
// one enqueue and one ack record.
const fuzzSegmentHex = "41534150514a310a010000009ed9b876a7011e0000007b226964223a312c2273706563223a7b2278223a317d2c226174223a377d4a6ea012a703280000007b226964223a312c2264656c6976657279223a312c2268617368223a227368613235362d6162227d3a06d439"

// FuzzReplay: Replay never panics, its report accounts for every input
// byte, and the records it returns re-encode to exactly the input's
// valid prefix — replay accepts nothing the journal would not have
// written.
func FuzzReplay(f *testing.F) {
	seg, err := hex.DecodeString(fuzzSegmentHex)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seg)
	f.Add(seg[:len(seg)-3])
	f.Add(seg[:fileHdrSize])
	f.Add(append(append([]byte{}, seg...), seg[fileHdrSize:]...))
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, rep, err := Replay(data)
		if err != nil {
			return
		}
		if rep.Records != len(recs) || rep.GoodBytes+rep.TornBytes != int64(len(data)) {
			t.Fatalf("report %+v does not account for %d records in %d bytes", rep, len(recs), len(data))
		}
		re := encodeFileHeader()
		for _, rec := range recs {
			b, err := encodeRecord(rec)
			if err != nil {
				t.Fatalf("re-encoding replayed %s record: %v", rec.Type, err)
			}
			re = append(re, b...)
		}
		if !bytes.Equal(re, data[:rep.GoodBytes]) {
			t.Fatalf("replayed records re-encode to %x, want the input prefix %x", re, data[:rep.GoodBytes])
		}
	})
}
