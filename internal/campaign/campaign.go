// Package campaign runs the service layer's two seeded fault campaigns
// against the same durable code asapd runs, and audits the survivors.
// They are the service's version of the paper's claim that recovery is
// correct wherever the crash lands.
//
//   - Kill (kill.go): every case runs real queue.Daemons on a case
//     directory over an iofault.FaultFS armed with a ClassKill trip. At
//     a seeded journal or artifact-store sync the FaultFS tears the
//     syncing file and dies, the daemon is abandoned, and a new daemon
//     restarts from the bytes left on disk. Injected worker panics ride
//     along. The audit reads the journal back through
//     queue.OpenDirJournal: no admitted job lost, none completed twice,
//     every artifact byte-identical to a serial run of its spec.
//   - IO (io.go): every case aims one fault class (ENOSPC, EIO, short
//     write, torn sync, failed rename) at one durable writer (journal,
//     artifact store, result cache, snapshot file), then reopens
//     through the real filesystem and audits: each operation either
//     survived in full or was refused without a trace.
//
// Config.Control turns either campaign into its negative control: the
// kill campaign runs volatile daemons (no journal), the I/O campaign
// disables the journal's append rollback. A control passes only if the
// audit detects the damage; if it does not, the auditors are blind and
// a green campaign proves nothing.
package campaign

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"asap/internal/runner"
)

// Config shapes one campaign run.
type Config struct {
	// Cases is the number of seeded cases (default 200 for Kill, 300
	// for IO).
	Cases int
	// Seed roots every case's RNG: the same (Seed, Cases, Control) run
	// schedules the same faults.
	Seed int64
	// Control runs the negative control.
	Control bool
	// Dir hosts the per-case directories (default: a temporary
	// directory, removed afterwards).
	Dir string
}

// KillStats is the kill campaign's tally.
type KillStats struct {
	DaemonKills int `json:"daemon_kills"`
	// TornTails counts restarts that found and truncated a torn journal
	// tail: kills that landed mid-append.
	TornTails    int   `json:"torn_tails"`
	WorkerPanics int   `json:"worker_panics"`
	Redelivered  int64 `json:"redelivered"`
	// Lost, Doubled and Mismatched count admitted jobs that never
	// finished, jobs acked twice, and artifacts differing from a serial
	// run.
	Lost       int `json:"lost"`
	Doubled    int `json:"doubled"`
	Mismatched int `json:"mismatched"`
}

func (k *KillStats) add(o KillStats) {
	k.DaemonKills += o.DaemonKills
	k.TornTails += o.TornTails
	k.WorkerPanics += o.WorkerPanics
	k.Redelivered += o.Redelivered
	k.Lost += o.Lost
	k.Doubled += o.Doubled
	k.Mismatched += o.Mismatched
}

// IOStats is the I/O campaign's tally.
type IOStats struct {
	// Injected counts cases where the armed fault actually fired (a trip
	// aimed past a case's last operation never fires; such cases still
	// audit as fault-free survivals).
	Injected int `json:"injected"`
	// CleanRefusals counts operations that failed visibly under a fault;
	// Survivals counts operations that succeeded and were then held to
	// the durability audit.
	CleanRefusals    int            `json:"clean_refusals"`
	Survivals        int            `json:"survivals"`
	ByTarget         map[string]int `json:"by_target"`
	ByClass          map[string]int `json:"by_class"`
	InjectedByTarget map[string]int `json:"injected_by_target"`
}

func (s *IOStats) add(o IOStats) {
	s.Injected += o.Injected
	s.CleanRefusals += o.CleanRefusals
	s.Survivals += o.Survivals
	for _, m := range []struct{ dst, src map[string]int }{
		{s.ByTarget, o.ByTarget}, {s.ByClass, o.ByClass}, {s.InjectedByTarget, o.InjectedByTarget},
	} {
		for k, v := range m.src {
			m.dst[k] += v
		}
	}
}

// Summary is a campaign's report; Verdict judges it.
type Summary struct {
	Campaign string     `json:"campaign"`
	Cases    int        `json:"cases"`
	Seed     int64      `json:"seed"`
	Control  bool       `json:"control,omitempty"`
	Kill     *KillStats `json:"kill,omitempty"`
	IO       *IOStats   `json:"io,omitempty"`
	// Failures are audit violations. A passing campaign, control or
	// not, has none.
	Failures []string `json:"failures,omitempty"`
	// Detected lists the violations a negative control exists to cause,
	// and DetectedCases the cases that showed at least one.
	Detected      []string `json:"detected,omitempty"`
	DetectedCases int      `json:"detected_cases,omitempty"`
}

// Verdict returns nil if the campaign passed. A campaign passes with
// zero audit failures and at least one fault exercised; a negative
// control passes with zero unexpected failures and its damage detected
// in at least one case.
func (s *Summary) Verdict() error {
	switch {
	case len(s.Failures) > 0:
		return fmt.Errorf("%d audit failures", len(s.Failures))
	case s.Control && s.DetectedCases == 0:
		return errors.New("the negative control detected nothing: the auditors are blind")
	case !s.Control && s.Kill != nil && s.Kill.DaemonKills == 0,
		!s.Control && s.IO != nil && s.IO.Injected == 0:
		return errors.New("no fault fired: nothing was exercised")
	}
	return nil
}

// String is a one-line account of a passing run.
func (s *Summary) String() string {
	switch {
	case s.Control:
		return fmt.Sprintf("negative control: %d/%d cases detected the damage (expected)", s.DetectedCases, s.Cases)
	case s.Kill != nil:
		k := s.Kill
		return fmt.Sprintf("%d cases, %d daemon kills, %d torn journal tails, %d worker panics, %d redeliveries, %d lost, %d doubled, %d mismatched",
			s.Cases, k.DaemonKills, k.TornTails, k.WorkerPanics, k.Redelivered, k.Lost, k.Doubled, k.Mismatched)
	default:
		return fmt.Sprintf("%d cases, %d faults fired, %d clean refusals, %d audit failures",
			s.Cases, s.IO.Injected, s.IO.CleanRefusals, len(s.Failures))
	}
}

// caseResult is one case's tally and audit findings.
type caseResult struct {
	kill     KillStats
	io       IOStats
	failures []string
	detected []string
}

// caseFunc runs case idx in its own directory, drawing every random
// choice from rng.
type caseFunc func(cfg Config, idx int, rng *rand.Rand, dir string) caseResult

// run is the seeded case loop both campaigns share: it fills sum, which
// the caller seeds with its campaign name and an empty tally.
func run(sum *Summary, cfg Config, one caseFunc) (*Summary, error) {
	if cfg.Dir == "" {
		dir, err := os.MkdirTemp("", "asapd-"+sum.Campaign+"-campaign-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		cfg.Dir = dir
	}
	jobs := make([]runner.Job[caseResult], cfg.Cases)
	for i := range jobs {
		label := fmt.Sprintf("case%03d", i)
		jobs[i] = runner.Job[caseResult]{Label: label, Run: func() caseResult {
			rng := rand.New(rand.NewSource(cfg.Seed*1_000_003 + int64(i)))
			return one(cfg, i, rng, filepath.Join(cfg.Dir, label))
		}}
	}
	// Cases are independent, so they run on every CPU; results come back
	// in case order, so a seed reports identically at any width.
	results, err := runner.Collect(runner.New(0), jobs)
	if err != nil {
		return nil, fmt.Errorf("%s campaign: %w", sum.Campaign, err)
	}
	sum.Cases, sum.Seed, sum.Control = cfg.Cases, cfg.Seed, cfg.Control
	for _, r := range results {
		if sum.Kill != nil {
			sum.Kill.add(r.kill)
		} else {
			sum.IO.add(r.io)
		}
		sum.Failures = append(sum.Failures, r.failures...)
		sum.Detected = append(sum.Detected, r.detected...)
		if len(r.detected) > 0 {
			sum.DetectedCases++
		}
	}
	return sum, nil
}
