// Package crashtest is the crash harness: it runs cases on the simulated
// machine, injects a power failure at a chosen cycle with a seeded
// mixture of persistence-domain faults (torn persists, dropped WPQ
// entries, reordered flushes, dropped LH-WPQ headers, log-media bit
// flips), recovers through the public crash path — serialized crash
// state, LoadCrashState, Recover — and checks the recovered image.
//
// A case comes in one of two kinds. A workload case (Case.Workload) runs
// a striped counter (workloads.go) or a Table 3 benchmark through the
// public workload path, runs the structure's own Benchmark.Check on the
// recovered image and then reboots on it with NewSystemFromCrash. A torture case
// (Case.Preset) runs a seeded schedule of atomic-region operations on a
// machine whose ASAP structures are squeezed to their minimum sizes, with
// the invariant engine attached and the forward-progress watchdog armed
// (torture.go); its crash cases check the conserved slot sum. Everything
// after the pre-crash run — the post-crash step, the sweep, the summary
// and shrinking — is shared.
//
// The possible verdicts form the harness's contract. With no faults, a
// case must come back clean. With faults, recovery may either repair the
// damage (recovered: every invariant still holds) or refuse with a
// corruption error (detected: fail-stop is correct when undo material is
// gone). What it must never do is claim success over a broken image —
// that is a violation, and a failing case shrinks by deterministic replay
// to a minimal fault set or schedule.
package crashtest

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"

	"asap"
	"asap/internal/core"
	"asap/internal/faults"
	"asap/internal/machine"
	"asap/internal/recovery"
)

// Case is one crash-harness experiment: a workload case when Workload is
// set, a torture case when Preset is set.
type Case struct {
	// Workload names the structure under test (see Workloads).
	Workload string `json:"workload,omitempty"`
	// Preset names the torture exhaustion configuration (see Presets).
	Preset string `json:"preset,omitempty"`
	// CrashAt is the power-failure cycle, measured from the start of the
	// workload's measured phase (workload cases) or from the end of
	// setup (torture cases, where 0 means run to completion, no crash).
	CrashAt uint64 `json:"crash_at,omitempty"`
	// Seed drives the workload schedule or generated torture schedule,
	// and the fault decisions.
	Seed int64 `json:"seed"`
	// Mix is the fault mixture injected at the crash flush.
	Mix faults.Mix `json:"mix"`
	// Replay, when non-nil, inflicts exactly these fault events instead of
	// drawing from Mix: the fault-shrinking mode.
	Replay []faults.Event `json:"replay,omitempty"`
	// SkipValidation recovers without the integrity pass — the deliberate
	// negative control proving the checker notices when validation is off.
	SkipValidation bool `json:"skip_validation,omitempty"`
	// SnapshotEvery, when non-zero, moves the power failure to the first
	// checkpoint boundary at or after CrashAt: the machine digests its
	// state every SnapshotEvery cycles and the kill lands exactly on a
	// boundary — the moment a checkpointer would be publishing a snapshot.
	// Recovery still goes through the same public path; the family proves
	// a boundary is not a privileged instant. Workload cases only.
	SnapshotEvery uint64 `json:"snapshot_every,omitempty"`
	// Threads and Ops shape the generated torture schedule (Ops per thread).
	Threads int `json:"threads,omitempty"`
	Ops     int `json:"ops,omitempty"`
	// NegativeControl enables core.Options.UnsafeEarlyLogFree: the seeded
	// protocol bug the invariant engine must catch (expected verdict:
	// violation, CheckCommitRule).
	NegativeControl bool `json:"negative_control,omitempty"`
	// Stride is the invariant-check stride in kernel steps (0 = 16).
	Stride uint64 `json:"stride,omitempty"`
	// Schedule, when non-nil, replaces the generated torture schedule:
	// the schedule-shrinking mode.
	Schedule []Op `json:"schedule,omitempty"`
}

func (c Case) String() string {
	if c.Preset != "" {
		s := fmt.Sprintf("%s seed %d %dx%d", c.Preset, c.Seed, c.Threads, c.Ops)
		if c.CrashAt > 0 {
			s += fmt.Sprintf(" crash@%d mix %s", c.CrashAt, c.Mix)
		}
		if c.NegativeControl {
			s += " [negative-control]"
		}
		return s
	}
	s := fmt.Sprintf("%s crash@%d seed %d mix %s", c.Workload, c.CrashAt, c.Seed, c.Mix)
	if c.SnapshotEvery > 0 {
		s += fmt.Sprintf(" snap@%d", c.SnapshotEvery)
	}
	return s
}

// Verdict classifies a case's outcome.
type Verdict string

// The verdicts.
const (
	// VerdictClean: no fault fired, the run drained or recovery
	// succeeded, and every invariant holds.
	VerdictClean Verdict = "clean"
	// VerdictRecovered: faults fired, recovery succeeded, invariants hold.
	VerdictRecovered Verdict = "recovered"
	// VerdictDetected: faults fired and recovery refused with a corruption
	// error, leaving the image untouched — the correct fail-stop outcome
	// when undo material is damaged.
	VerdictDetected Verdict = "detected"
	// VerdictViolation: recovery claimed success but an invariant is
	// broken, it reported corruption in an undamaged image, or the
	// invariant engine flagged a protocol violation.
	VerdictViolation Verdict = "violation"
	// VerdictStall: the kernel stopped without draining — deadlock or
	// watchdog-diagnosed livelock — with the structured diagnosis attached.
	VerdictStall Verdict = "stall"
	// VerdictError: the harness itself failed (simulator panic, unloadable
	// state) — neither a pass nor a crash-consistency finding.
	VerdictError Verdict = "error"
)

// Outcome is the result of one case.
type Outcome struct {
	Case    Case    `json:"case"`
	Verdict Verdict `json:"verdict"`
	// Faults is every injected event, in decision order.
	Faults []faults.Event `json:"faults,omitempty"`
	// Detail carries the invariant violation or the recovery/harness error.
	Detail string `json:"detail,omitempty"`
	// Report is the recovery summary when recovery ran to completion.
	Report *asap.RecoveryReport `json:"report,omitempty"`
	// Violations holds the invariant engine's findings (bounded).
	Violations []string `json:"violations,omitempty"`
	// Stall carries the forward-progress diagnosis for stall verdicts.
	Stall string `json:"stall,omitempty"`
	// Shrunk is the minimal reproducer of a violation, filled by Shrink:
	// the case with Replay or Schedule cut down, rerunnable as is.
	Shrunk *Case `json:"shrunk,omitempty"`
	// Cycles and Regions summarize how much work a torture case did.
	Cycles  uint64 `json:"cycles,omitempty"`
	Regions int64  `json:"regions,omitempty"`
	// Checks is the number of full invariant passes that ran.
	Checks uint64 `json:"checks,omitempty"`
}

// Bad reports whether o must fail a CI gate: a violation, stall or
// harness error on a real case, or a negative control that was NOT caught
// (a blind invariant engine is the worst failure of all).
func (o Outcome) Bad() bool {
	if o.Case.NegativeControl {
		return o.Verdict != VerdictViolation
	}
	return o.Verdict == VerdictViolation || o.Verdict == VerdictStall || o.Verdict == VerdictError
}

// RunCase executes one case end to end.
func RunCase(c Case) (out Outcome) {
	out = Outcome{Case: c}
	defer func() {
		if p := recover(); p != nil {
			out.Verdict, out.Detail = VerdictError, fmt.Sprintf("harness panic: %v", p)
		}
	}()
	if c.Preset != "" {
		runTorture(c, &out)
	} else {
		runWorkload(c, &out)
	}
	return out
}

// powerFailure is one case's crash: the fault injector installed on the
// machine, and the crash state once the power has failed.
type powerFailure struct {
	eng *core.Engine
	inj *faults.Injector
	cs  *core.CrashState
}

// armPowerFailure installs the case's fault injector on m: the recorded
// events under Replay, fresh seeded decisions otherwise.
func armPowerFailure(c Case, m *machine.Machine, eng *core.Engine) *powerFailure {
	var inj *faults.Injector
	if c.Replay != nil {
		inj = faults.Replay(c.Replay)
	} else {
		inj = faults.New(c.Seed, c.Mix)
	}
	m.Fabric.SetFaultInjector(inj)
	return &powerFailure{eng: eng, inj: inj}
}

// crash cuts the power. Damage is scoped to the uncommitted regions:
// recovery owes nothing for committed data (that is the media's
// durability problem, not crash consistency), and an unscoped fault there
// would fail every mix against an invariant no log can protect.
func (pf *powerFailure) crash() {
	pf.inj.SetScope(pf.eng.UncommittedRIDs())
	pf.cs = pf.eng.Crash()
}

// save completes the power failure — it crashes the idle machine if the
// run drained before the crash point, then flips log bits — and writes
// the crash state to w in the format asap.LoadCrashState reads. It
// returns every injected event.
func (pf *powerFailure) save(w io.Writer) ([]faults.Event, error) {
	if pf.cs == nil {
		pf.crash()
	}
	// Bit-flip media errors hit the log region after the flush, modelling
	// decay the header and payload checksums exist to catch.
	var ranges []faults.Range
	for _, ext := range pf.cs.Logs {
		ranges = append(ranges, faults.Range{Base: ext.Base, Size: ext.Size})
	}
	pf.inj.FlipBits(pf.cs.Image, ranges)
	if err := gob.NewEncoder(w).Encode(pf.cs); err != nil {
		return pf.inj.Events(), fmt.Errorf("encoding crash state: %w", err)
	}
	return pf.inj.Events(), nil
}

// recoverAndCheck is the post-crash step every case shares. It saves the
// crash state, then hands it to the public API only — exactly what a real
// post-crash process gets — recovers it and runs check on the recovered
// image. It returns the recovered state, or nil once out holds a
// detected, violation or error verdict.
func (pf *powerFailure) recoverAndCheck(out *Outcome, check func(read func(uint64) uint64) string) *asap.CrashState {
	var buf bytes.Buffer
	var err error
	if out.Faults, err = pf.save(&buf); err != nil {
		out.Verdict, out.Detail = VerdictError, err.Error()
		return nil
	}
	pub, err := asap.LoadCrashState(&buf)
	if err != nil {
		out.Verdict, out.Detail = VerdictError, err.Error()
		return nil
	}
	rep, err := pub.RecoverWithOptions(asap.RecoverOptions{SkipValidation: out.Case.SkipValidation})
	if err != nil {
		var ce *recovery.CorruptionError
		switch {
		case !errors.As(err, &ce):
			out.Verdict, out.Detail = VerdictError, err.Error()
		case len(out.Faults) > 0:
			out.Verdict, out.Detail = VerdictDetected, err.Error()
		default:
			out.Verdict, out.Detail = VerdictViolation, "corruption reported without any injected fault: "+err.Error()
		}
		return nil
	}
	out.Report = rep
	if problem := check(pub.ReadUint64); problem != "" {
		out.Verdict, out.Detail = VerdictViolation, problem
		return nil
	}
	return pub
}

// passed gives a case that survived every check its verdict: recovered
// when faults fired, clean otherwise.
func (out *Outcome) passed() {
	out.Verdict = VerdictClean
	if len(out.Faults) > 0 {
		out.Verdict = VerdictRecovered
	}
}

// Shrink minimizes a violation by ddmin replay and returns the minimal
// reproducer, or nil when there is nothing to cut. A torture case shrinks
// its schedule; a workload case shrinks its fault events (injection acts
// only at the crash flush, so the pre-crash execution is identical).
// budget bounds the number of replays.
func Shrink(o Outcome, budget int) *Case {
	fails := func(c Case) bool {
		if budget <= 0 {
			return false
		}
		budget--
		return RunCase(c).Verdict == VerdictViolation
	}
	c := o.Case
	if c.Preset != "" {
		c.Schedule = DDMin(c.schedule(), func(sub []Op) bool {
			cc := c
			cc.Schedule = sub
			return fails(cc)
		})
		return &c
	}
	if len(o.Faults) < 2 {
		return nil
	}
	c.Replay = DDMin(o.Faults, func(sub []faults.Event) bool {
		cc := c
		cc.Replay = sub
		return fails(cc)
	})
	return &c
}
