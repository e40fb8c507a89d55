package asap

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"testing"

	"asap/internal/arch"
	"asap/internal/core"
	"asap/internal/wal"
)

// savedCrashBytes produces one serialized crash state to mutilate: a tiny
// system with a couple of regions in flight at the crash.
func savedCrashBytes(t *testing.T) []byte {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Cores = 2
	cfg.MemoryControllers, cfg.ChannelsPerMC = 1, 1
	cfg.WPQEntries = 1
	cfg.PMLatencyMultiplier = 16
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := sys.Malloc(64)
	var crash *CrashState
	sys.Spawn("w", func(th *Thread) {
		th.Begin()
		th.StoreUint64(a, 7)
		th.End()
		th.Begin()
		th.StoreUint64(a, 8)
		crash, _ = sys.Crash()
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := crash.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoadCrashStateTruncated feeds every interesting prefix of a valid
// crash file to LoadCrashState: all must error, none may panic.
func TestLoadCrashStateTruncated(t *testing.T) {
	full := savedCrashBytes(t)
	cuts := []int{0, 1, 2, 16, len(full) / 4, len(full) / 2, len(full) - 1}
	for _, n := range cuts {
		if _, err := LoadCrashState(bytes.NewReader(full[:n])); err == nil {
			t.Errorf("truncation to %d/%d bytes loaded without error", n, len(full))
		}
	}
}

// TestLoadCrashStateGarbage feeds deterministic random bytes — nothing
// resembling a gob stream — and expects a clean error.
func TestLoadCrashStateGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 64, 4096} {
		junk := make([]byte, n)
		rng.Read(junk)
		if _, err := LoadCrashState(bytes.NewReader(junk)); err == nil {
			t.Errorf("%d bytes of garbage loaded without error", n)
		}
	}
}

// TestLoadCrashStateBitFlips flips single bytes throughout a valid crash
// file. Whatever the flip hits — gob framing, type descriptors, image
// payload — loading must either fail with an error or yield a state whose
// Recover completes without panicking.
func TestLoadCrashStateBitFlips(t *testing.T) {
	full := savedCrashBytes(t)
	step := len(full)/97 + 1
	for off := 0; off < len(full); off += step {
		mut := append([]byte(nil), full...)
		mut[off] ^= 0x41
		cs, err := LoadCrashState(bytes.NewReader(mut))
		if err != nil {
			continue
		}
		// Flip landed somewhere content-only (e.g. an image line): the
		// state is loadable, and recovery must degrade to an error at
		// worst.
		if _, rerr := cs.Recover(); rerr != nil {
			t.Logf("flip at %d: recovery rejected damaged state: %v", off, rerr)
		}
	}
}

// TestLoadCrashStateMalformedStructure gob-encodes structurally invalid
// crash states directly — the shapes Validate guards against — and checks
// the load path rejects each one.
func TestLoadCrashStateMalformedStructure(t *testing.T) {
	cases := map[string]*core.CrashState{
		"no image": {},
		"log size not record-aligned": {
			Logs: []core.LogExtent{{Thread: 0, Base: 0, Size: wal.RecordBytes + 1}},
		},
		"log tail before head": {
			Logs: []core.LogExtent{{Thread: 0, Base: 0, Size: wal.RecordBytes, Head: 1024, Tail: 0}},
		},
		"log window larger than buffer": {
			Logs: []core.LogExtent{{Thread: 0, Base: 0, Size: wal.RecordBytes, Head: 0, Tail: 10 * wal.RecordBytes}},
		},
	}
	for name, cs := range cases {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(cs); err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		if _, err := LoadCrashState(&buf); err == nil {
			t.Errorf("%s: loaded without error", name)
		}
	}
}

// forgedImage gob-encodes the way memdev.Image does, with whatever line
// payloads it holds.
type forgedImage map[arch.LineAddr][]byte

func (f forgedImage) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(map[arch.LineAddr][]byte(f))
	return buf.Bytes(), err
}

// TestLoadCrashStateBadLineLength forges crash files whose image holds one
// line of the wrong size: loading must reject each, and accept the same
// file with a 64 B line.
func TestLoadCrashStateBadLineLength(t *testing.T) {
	for _, n := range []int{0, 1, arch.LineSize - 1, arch.LineSize, arch.LineSize + 1} {
		var buf bytes.Buffer
		forged := struct{ Image forgedImage }{forgedImage{arch.LineSize: make([]byte, n)}}
		if err := gob.NewEncoder(&buf).Encode(forged); err != nil {
			t.Fatalf("%d B line: encode: %v", n, err)
		}
		_, err := LoadCrashState(&buf)
		if n == arch.LineSize && err != nil {
			t.Errorf("64 B line: %v", err)
		}
		if n != arch.LineSize && err == nil {
			t.Errorf("%d B line loaded without error", n)
		}
	}
}

// FuzzLoadCrashState: no input makes LoadCrashState, or recovery of a
// state it accepted, panic — the promise that untrusted crash files are
// safe to load. The seed corpus (testdata/fuzz) holds the crash state
// "asapcrash -workloads counter -points 1 -crash-lo 8000 -crash-hi 8001
// -mixes none -save" writes: eight uncommitted regions to roll back.
func FuzzLoadCrashState(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		cs, err := LoadCrashState(bytes.NewReader(raw))
		if err != nil {
			return
		}
		_, _ = cs.RecoverWithOptions(RecoverOptions{})
	})
}
