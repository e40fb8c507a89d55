// Checkpoint/resume at the experiment layer (DESIGN.md §15). A snapshot
// here is a consistent cut (identity, seed, cycle, per-section digests) —
// not a byte image — and resume means replaying the deterministic run to
// the boundary, verifying every section digest bit-for-bit, then
// continuing. The digests turn determinism from an assumption into an
// audited property: any divergence halts at the first boundary with the
// diverging sections named.
package experiment

import (
	"cmp"
	"fmt"
	"strings"

	"asap/internal/snapshot"
	"asap/internal/workload"
)

// identity names a cell for snapshot stamping: the canonical cache-key
// encoding of a standard cell, a best-effort scheme/label tag otherwise
// (custom cells and trace- or obs-attached variants).
func (s runSpec) identity() string {
	if k := s.key(); k != nil && !s.custom() {
		return k.Canonical()
	}
	return fmt.Sprintf("custom/%s/%s", s.v.Scheme, cmp.Or(s.label, s.bench))
}

// RunCheckpointed is Run plus a recorded snapshot every `every` cycles.
// The result is byte-identical to Run's (boundary events are
// scheduling-neutral); the snapshots are the resume anchors.
func RunCheckpointed(v Variant, bench string, scale Scale, valueBytes int, every uint64) (workload.Result, []snapshot.Snap) {
	res, ck := runSpec{v: v, bench: bench, scale: scale, valueBytes: valueBytes}.run(every, nil)
	if ck == nil {
		return res, nil
	}
	return res, ck.Snaps
}

// ResumeError reports a replay that reached the checkpoint cycle with
// different state: a determinism bug, a code change since the snapshot was
// taken, or a corrupted snapshot.
type ResumeError struct {
	Want, Got snapshot.Snap
	Diffs     []string
}

func (e *ResumeError) Error() string {
	return fmt.Sprintf("experiment: resume diverged from checkpoint at cycle %d: %s",
		e.Want.Cycle, strings.Join(e.Diffs, "; "))
}

// RunResumed resumes the run that produced `from`: it replays from scratch
// with the same checkpoint schedule (`every` must match the schedule that
// produced `from` — boundary events consume scheduler sequence numbers, so
// digests only compare between identical schedules), verifies the digest
// bit-for-bit at from.Cycle, and continues to completion. On divergence the
// run halts at the boundary and a *ResumeError names the diverging
// sections.
func RunResumed(v Variant, bench string, scale Scale, valueBytes int, every uint64, from snapshot.Snap) (workload.Result, error) {
	if every == 0 || from.Cycle%every != 0 {
		return workload.Result{}, fmt.Errorf("experiment: checkpoint cycle %d is not on an every=%d boundary", from.Cycle, every)
	}
	var rerr *ResumeError
	verified := false
	spec := runSpec{v: v, bench: bench, scale: scale, valueBytes: valueBytes}
	res, _ := spec.run(every, func(s snapshot.Snap) bool {
		if s.Cycle != from.Cycle {
			return true
		}
		verified = true
		if diffs := from.Diff(s); len(diffs) > 0 {
			rerr = &ResumeError{Want: from, Got: s, Diffs: diffs}
			return false
		}
		return true
	})
	if rerr != nil {
		return res, rerr
	}
	if !verified {
		return res, fmt.Errorf("experiment: replay finished at a different point; never hit checkpoint cycle %d", from.Cycle)
	}
	return res, nil
}
