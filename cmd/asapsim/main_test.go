package main

import (
	"bytes"
	"strings"
	"testing"

	"asap/internal/schemes"
)

// TestBadInputExitsTwo: an unknown scheme or a non-positive thread or op
// count is a usage error reported in one line before anything runs.
func TestBadInputExitsTwo(t *testing.T) {
	for _, args := range [][]string{
		{"-scheme", "nope"},
		{"-bench", "nope"},
		{"-threads", "0"},
		{"-ops", "-5"},
		{"-no-such-flag"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("%v: exit %d, want 2\nstdout: %s\nstderr: %s", args, code, out.String(), errb.String())
		}
		if out.Len() != 0 {
			t.Errorf("%v: printed a report:\n%s", args, out.String())
		}
	}
}

// TestEverySchemeRuns: every scheme the -scheme flag accepts builds and
// runs a tiny workload consistently.
func TestEverySchemeRuns(t *testing.T) {
	for _, s := range schemes.Names() {
		var out, errb bytes.Buffer
		if code := run([]string{"-scheme", s, "-threads", "1", "-ops", "5", "-items", "8"}, &out, &errb); code != 0 {
			t.Errorf("%s: exit %d\nstderr: %s", s, code, errb.String())
		}
		if !strings.Contains(out.String(), "consistency OK") {
			t.Errorf("%s: report lacks a clean consistency line:\n%s", s, out.String())
		}
	}
}
