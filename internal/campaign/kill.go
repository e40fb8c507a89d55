package campaign

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"asap/internal/iofault"
	"asap/internal/queue"
)

// Kill campaign shape: each case submits jobsPerCase jobs to a daemon
// with daemonWorkers workers and kills it up to maxKills times. The
// daemons compact their journals at compactBytes, small enough that a
// case's few jobs compact it several times, so kills land inside
// compactions too.
const (
	jobsPerCase     = 4
	daemonWorkers   = 3
	maxKills        = 2
	compactBytes    = 256
	convergeTimeout = 30 * time.Second
)

// killPolicy has a generous dead-letter bound: injected panics plus the
// orphaned-lease charges of daemon kills must never dead-letter a
// healthy job (the poison-job path has its own unit tests).
var killPolicy = queue.Policy{
	MaxDeliveries: 25,
	LeaseTimeout:  2 * time.Second,
	BackoffBase:   time.Millisecond,
	BackoffCap:    4 * time.Millisecond,
}

// Kill runs the seeded kill/restart campaign (see the package comment).
// With cfg.Control the daemons run volatile, and the audit must observe
// lost jobs.
func Kill(cfg Config) (*Summary, error) {
	if cfg.Cases <= 0 {
		cfg.Cases = 200
	}
	return run(&Summary{Campaign: "kill", Kill: &KillStats{}}, cfg, killCase)
}

// spinSpec is the kill campaign's job payload: Work seeds the output,
// Spin sizes the hash chain standing in for simulation work.
type spinSpec struct {
	Work int64 `json:"work"`
	Spin int   `json:"spin"`
}

// spinExec is a pure function of the spec, so redelivered work
// reproduces the same artifact, the property a real sweep executor
// gets from the bit-deterministic simulator.
func spinExec(spec spinSpec) []byte {
	sum := sha256.Sum256([]byte(fmt.Sprintf("asapd-campaign:%d", spec.Work)))
	for i := 0; i < spec.Spin; i++ {
		sum = sha256.Sum256(sum[:])
	}
	return []byte(fmt.Sprintf("campaign artifact work=%d spin=%d\ndigest %s\n",
		spec.Work, spec.Spin, hex.EncodeToString(sum[:])))
}

// panicBudget doles out injected worker panics: each job panics in a
// seeded number of deliveries before one is allowed to succeed.
type panicBudget struct {
	mu      sync.Mutex
	left    map[int64]int
	charged int
}

func (b *panicBudget) shouldPanic(work int64) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.left[work] > 0 {
		b.left[work]--
		b.charged++
		return true
	}
	return false
}

// killCase runs one case: daemons over a FaultFS, killed at seeded
// syncs and restarted, until one phase drains cleanly; then the audit.
func killCase(cfg Config, idx int, rng *rand.Rand, dir string) caseResult {
	var res caseResult
	fail := func(format string, args ...any) {
		res.failures = append(res.failures, fmt.Sprintf("case %d: ", idx)+fmt.Sprintf(format, args...))
	}

	specs := make([]json.RawMessage, jobsPerCase)
	expected := make([][]byte, jobsPerCase)
	budget := &panicBudget{left: make(map[int64]int)}
	for i := range specs {
		spec := spinSpec{Work: cfg.Seed*int64(cfg.Cases+1)*17 + int64(idx*jobsPerCase+i), Spin: 1 + rng.Intn(64)}
		specs[i], _ = json.Marshal(spec)
		expected[i] = spinExec(spec)
		budget.left[spec.Work] = rng.Intn(3)
	}
	exec := func(ctx context.Context, raw json.RawMessage) ([]byte, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var spec spinSpec
		if err := json.Unmarshal(raw, &spec); err != nil {
			return nil, err
		}
		if budget.shouldPanic(spec.Work) {
			panic(fmt.Sprintf("injected worker crash (work=%d)", spec.Work))
		}
		return spinExec(spec), nil
	}

	kills := rng.Intn(maxKills + 1)
	if cfg.Control {
		kills = 1 + rng.Intn(maxKills) // the control must actually die
	}
	admitted := make(map[uint64]int) // job ID -> spec index
	submitted := 0
	deadline := time.Now().Add(convergeTimeout)
	for phase := 0; ; phase++ {
		ffs := iofault.NewFaultFS(iofault.OS{}, rng.Int63())
		d, err := queue.Open(queue.Config{
			Dir:         dir,
			Workers:     daemonWorkers,
			Policy:      killPolicy,
			Exec:        exec,
			ExpireEvery: 5 * time.Millisecond,
			SeriesEvery: -1,
			Logger:      queue.DiscardLogger(),
			Volatile:    cfg.Control,
			FS:          ffs,

			JournalCompactBytes: compactBytes,
		})
		if err != nil {
			fail("phase %d: open: %v", phase, err)
			return res
		}
		if d.JournalRep.TornBytes > 0 {
			res.kill.TornTails++
		}
		if phase < kills {
			// Die at a seeded upcoming sync, journal append or artifact
			// put alike. A volatile daemon's only syncs are artifact puts,
			// so the control always dies mid-job.
			n := 1 + rng.Intn(6)
			if cfg.Control {
				n = 1 + rng.Intn(jobsPerCase)
			}
			ffs.Arm(iofault.Trip{Op: iofault.OpSync, Class: iofault.ClassKill, N: n})
		}
		d.Start()
		// A submit refused by a dead daemon never happened: the client
		// retries against the restarted one.
		for ; submitted < len(specs); submitted++ {
			id, err := d.Submit(specs[submitted])
			if err != nil {
				break
			}
			admitted[id] = submitted
		}
		for !ffs.Killed() && !(submitted == len(specs) && d.Q.Idle()) {
			if time.Now().After(deadline) {
				fail("phase %d: case did not converge within %s", phase, convergeTimeout)
				d.Kill()
				return res
			}
			time.Sleep(time.Millisecond)
		}
		if ffs.Killed() {
			d.Kill()
			// The kill is armed after Open, so a temp file in the data
			// directory itself can only be a compaction's.
			if p := ffs.Log()[0].Path; filepath.Dir(p) == dir && strings.HasPrefix(filepath.Base(p), ".tmp-") {
				res.kill.CompactionKills++
			}
			continue
		}
		// Clean finish. A kill armed for a sync that never came must not
		// fire during the drain.
		ffs.Disarm()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := d.Drain(ctx); err != nil {
			fail("final drain: %v", err)
		}
		cancel()
		res.kill.DaemonKills = phase
		break
	}
	res.kill.WorkerPanics = budget.charged
	auditKill(cfg, idx, dir, &res, fail, expected, admitted)
	return res
}

// auditKill checks a converged case: the journal replays through the
// real state machine (queue.Restore refuses any transition without a
// live lease or out of delivery order), no job was acked twice, and
// every admitted job ended done with the serial run's artifact bytes.
func auditKill(cfg Config, idx int, dir string, res *caseResult, fail func(string, ...any),
	expected [][]byte, admitted map[uint64]int) {

	st, err := queue.OpenStore(dir)
	if err != nil {
		fail("audit: opening store: %v", err)
		return
	}
	if cfg.Control {
		// No journal: the queue died with the killed daemon's memory.
		// Every admitted job whose artifact never reached the store is
		// lost, which is what the control must observe.
		for id, i := range admitted {
			if !st.Has(queue.HashBytes(expected[i])) {
				res.kill.Lost++
				res.detected = append(res.detected,
					fmt.Sprintf("case %d: job %d lost: no durable record survives the kill", idx, id))
			}
		}
		return
	}

	j, recs, _, err := queue.OpenJournal(iofault.OS{}, dir, queue.JournalOptions{})
	if err != nil {
		fail("audit: journal: %v", err)
		return
	}
	j.Close()

	// Count acks per job, carried across checkpoints, before Restore
	// refuses the second one.
	acks := make(map[uint64]int)
	for _, rec := range recs {
		switch rec.Type {
		case queue.RecCheckpoint:
			clear(acks)
			for _, cj := range rec.Checkpoint.Jobs {
				if cj.State == queue.StateDone {
					acks[cj.ID] = 1
				}
			}
		case queue.RecAck:
			acks[rec.ID]++
		}
	}
	for id, n := range acks {
		if n > 1 {
			res.kill.Doubled++
			fail("job %d completed %d times", id, n)
		}
	}

	q, _, err := queue.Restore(queue.Policy{MaxDeliveries: 1 << 30}, queue.Options{}, recs)
	if err != nil {
		fail("audit: journal does not replay: %v", err)
		return
	}
	for _, info := range q.List() {
		if info.Deliveries > 1 {
			res.kill.Redelivered += int64(info.Deliveries - 1)
		}
	}
	for id, i := range admitted {
		info, ok := q.Get(id)
		switch {
		case !ok:
			res.kill.Lost++
			fail("job %d lost: admitted but absent from the journal", id)
		case info.State != queue.StateDone:
			res.kill.Lost++
			fail("job %d lost: final state %s (deliveries %d, last error %q)",
				id, info.State, info.Deliveries, info.LastError)
		case info.Hash != queue.HashBytes(expected[i]):
			res.kill.Mismatched++
			fail("job %d artifact hash %s != serial run %s", id, info.Hash, queue.HashBytes(expected[i]))
		default:
			if got, err := st.Get(info.Hash); err != nil || !bytes.Equal(got, expected[i]) {
				res.kill.Mismatched++
				fail("job %d artifact unreadable or differs from serial run (err %v)", id, err)
			}
		}
	}
}
