package sweep

import (
	"bytes"
	"context"
	"os"
	"strings"
	"testing"
)

// TestQuickSweepMatchesRecord runs every experiment at quick scale on a
// two-worker pool and compares the bytes with the recorded output, so a
// change that moves any scheme's cycle counts fails here.
func TestQuickSweepMatchesRecord(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole quick sweep")
	}
	want, err := os.ReadFile("../../docs/experiments-quickscale.txt")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if _, err := Execute(context.Background(), Spec{Experiments: []string{"all"}, Parallel: 2}, &out, Options{}); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(out.Bytes(), want) {
		return
	}
	got, rec := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(got) && i < len(rec); i++ {
		if got[i] != rec[i] {
			t.Fatalf("line %d differs from docs/experiments-quickscale.txt:\n got: %s\nwant: %s", i+1, got[i], rec[i])
		}
	}
	t.Fatalf("output has %d lines, docs/experiments-quickscale.txt has %d", len(got), len(rec))
}
