package iofault

import (
	"bytes"
	"encoding/hex"
	"errors"
	"testing"
)

// Frame goldens the fuzz corpus starts from: resultcache's entry for
// {"cycles":12345} (goldenEntryHex) and snapshot's golden file
// (goldenFileHex), each captured from its package's encoder.
const (
	fuzzEntryHex    = "4153524301000000ae7f8491100000007b226379636c6573223a31323334357d"
	fuzzSnapshotHex = "4153534e010000006737920c6a0000007b2276657273696f6e223a312c226964656e74697479223a22676f6c64656e222c2273656564223a34322c226379636c65223a313030302c2273656374696f6e73223a5b7b226e616d65223a227374617465222c22736861323536223a223030313132323333227d5d7d"
)

// FuzzDecodeFrame: DecodeFrame never panics, every refusal wraps
// ErrBadFrame, and every accepted input is exactly EncodeFrame of the
// payload it returned — no frame decodes from bytes the encoder would
// not have written.
func FuzzDecodeFrame(f *testing.F) {
	for _, h := range []string{fuzzEntryHex, fuzzSnapshotHex} {
		raw, err := hex.DecodeString(h)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
		f.Add(raw[:len(raw)-1])
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		for _, magic := range []string{"ASRC", "ASSN"} {
			payload, err := DecodeFrame(magic, 1, raw)
			if err != nil {
				if !errors.Is(err, ErrBadFrame) {
					t.Fatalf("%s: refusal %v does not wrap ErrBadFrame", magic, err)
				}
				continue
			}
			if re := EncodeFrame(magic, 1, payload); !bytes.Equal(re, raw) {
				t.Fatalf("%s: accepted %x, re-encodes to %x", magic, raw, re)
			}
		}
	})
}
