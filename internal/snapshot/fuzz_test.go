package snapshot

import (
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"asap/internal/iofault"
)

// FuzzReadSnapshot: ReadFileFS never panics on any file, and a snapshot
// it accepts re-encodes through WriteFileFS and reads back to a Snap whose
// Diff against it is empty. Each input is tried as a whole file and, so
// that mutations get past the frame's CRC, as the payload of a valid
// frame. The seeds are a real `asapsim -checkpoint-file` snapshot
// (testdata/hm.assn) and the golden file, each with its payload.
func FuzzReadSnapshot(f *testing.F) {
	real, err := os.ReadFile("testdata/hm.assn")
	if err != nil {
		f.Fatal(err)
	}
	golden, err := hex.DecodeString(goldenFileHex)
	if err != nil {
		f.Fatal(err)
	}
	for _, file := range [][]byte{real, golden} {
		payload, err := iofault.DecodeFrame(fileMagic, FormatVersion, file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(file)
		f.Add(payload)
	}
	dir := f.TempDir()
	in, out := filepath.Join(dir, "in.assn"), filepath.Join(dir, "out.assn")
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, file := range [][]byte{data, iofault.EncodeFrame(fileMagic, FormatVersion, data)} {
			if err := os.WriteFile(in, file, 0o644); err != nil {
				t.Fatal(err)
			}
			snap, err := ReadFileFS(iofault.OS{}, in)
			if err != nil {
				continue
			}
			if err := WriteFileFS(iofault.OS{}, out, snap); err != nil {
				t.Fatalf("re-encoding an accepted snapshot: %v", err)
			}
			back, err := ReadFileFS(iofault.OS{}, out)
			if err != nil {
				t.Fatalf("reading back a re-encoded snapshot: %v", err)
			}
			if diff := snap.Diff(back); len(diff) != 0 {
				t.Fatalf("re-encoded snapshot differs: %v", diff)
			}
		}
	})
}
