package snapshot

import (
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"asap/internal/iofault"
)

func goldenSnap() Snap {
	return Snap{Version: FormatVersion, Identity: "golden", Seed: 42, Cycle: 1000,
		Sections: []Section{{Name: "state", SHA256: "00112233"}}}
}

// goldenFileHex is goldenSnap's file, captured from the encoder that
// predates the shared iofault frame. The bytes on disk must never move.
const goldenFileHex = "4153534e010000006737920c6a0000007b2276657273696f6e223a312c226964656e74697479223a22676f6c64656e222c2273656564223a34322c226379636c65223a313030302c2273656374696f6e73223a5b7b226e616d65223a227374617465222c22736861323536223a223030313132323333227d5d7d"

func TestFileRoundTripAndGolden(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.assn")
	want := goldenSnap()
	if err := WriteFileFS(iofault.OS{}, path, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFileFS(iofault.OS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip: got %+v, want %+v", got, want)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if h := hex.EncodeToString(raw); h != goldenFileHex {
		t.Fatalf("snapshot file bytes moved:\n got %s\nwant %s", h, goldenFileHex)
	}
}

// frameDamage is every strict prefix of a framed file plus a one-bit
// flip in each header field and in the payload.
func frameDamage(raw []byte) map[string][]byte {
	out := make(map[string][]byte)
	for n := 0; n < len(raw); n++ {
		out[fmt.Sprintf("prefix-%d", n)] = append([]byte(nil), raw[:n]...)
	}
	for name, off := range map[string]int{
		"magic": 0, "version": 4, "crc": 8, "length": 12, "payload": len(raw) - 1,
	} {
		b := append([]byte(nil), raw...)
		b[off] ^= 0x01
		out["flip-"+name] = b
	}
	return out
}

func TestFileRejectsDamage(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.assn")
	if err := WriteFileFS(iofault.OS{}, good, goldenSnap()); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	for name, bad := range frameDamage(raw) {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if snap, err := ReadFileFS(iofault.OS{}, path); !errors.Is(err, iofault.ErrBadFrame) {
			t.Errorf("%s: got %+v, %v; want ErrBadFrame", name, snap, err)
		}
	}
}
