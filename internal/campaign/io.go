package campaign

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"asap/internal/iofault"
	"asap/internal/queue"
	"asap/internal/resultcache"
	"asap/internal/snapshot"
)

// Targets and classes, in the order the case index cycles them. Every
// (target, class) pair is exercised every 20 cases, so the default 300
// cases cover the full matrix 15 times under different seeds.
var (
	ioTargets = []string{"journal", "store", "resultcache", "snapshot"}
	ioClasses = []string{
		iofault.ClassENOSPC,
		iofault.ClassEIO,
		iofault.ClassShortWrite,
		iofault.ClassTornSync,
		iofault.ClassRenameFail,
	}
)

// IO runs the hostile-I/O campaign. Each case runs three phases in its
// own directory:
//
//	A  seed state through the real filesystem (no faults),
//	B  keep working through a FaultFS with one seeded trip armed,
//	C  reopen through the real filesystem and audit: phase-B state must
//	   be provable from disk alone.
//
// The contract is DESIGN.md §16's: every injected fault ends in full
// survival or a clean refusal. Silent corruption, a lost acked job and
// a poisoned cache hit are audit failures. With cfg.Control the journal
// reopens without append rollback (queue.JournalOptions.NoRollback), so
// a failed append leaves a partial frame for later appends to bury, and
// the audit must see it.
func IO(cfg Config) (*Summary, error) {
	if cfg.Cases <= 0 {
		cfg.Cases = 300
	}
	return run(&Summary{Campaign: "io", IO: &IOStats{
		ByTarget: map[string]int{}, ByClass: map[string]int{}, InjectedByTarget: map[string]int{},
	}}, cfg, ioCase)
}

func ioCase(cfg Config, idx int, rng *rand.Rand, dir string) caseResult {
	target := ioTargets[idx%len(ioTargets)]
	c := &caseRun{
		idx: idx, target: target, class: ioClasses[(idx/len(ioTargets))%len(ioClasses)],
		rng: rng, dir: dir, control: cfg.Control,
		faultSeed: cfg.Seed ^ int64(idx)<<16,
	}
	switch target {
	case "journal":
		c.runJournal()
	case "store":
		c.runStore()
	case "resultcache":
		c.runResultCache()
	case "snapshot":
		c.runSnapshot()
	}
	st := IOStats{
		CleanRefusals:    c.refusals,
		Survivals:        c.survivals,
		ByTarget:         map[string]int{target: 1},
		ByClass:          map[string]int{c.class: 1},
		InjectedByTarget: map[string]int{},
	}
	if c.injected {
		st.Injected = 1
		st.InjectedByTarget[target] = 1
	}
	return caseResult{io: st, failures: c.failures, detected: c.detected}
}

// caseRun carries one case's state and verdicts.
type caseRun struct {
	idx       int
	target    string
	class     string
	rng       *rand.Rand
	dir       string
	control   bool
	faultSeed int64

	injected  bool
	refusals  int
	survivals int
	failures  []string
	detected  []string
}

// failf records an audit violation; under the negative control every
// violation is the damage the control exists to cause.
func (c *caseRun) failf(format string, args ...any) {
	msg := fmt.Sprintf("case %d [%s/%s]: %s", c.idx, c.target, c.class, fmt.Sprintf(format, args...))
	if c.control {
		c.detected = append(c.detected, msg)
	} else {
		c.failures = append(c.failures, msg)
	}
}

// note records one phase-B operation outcome.
func (c *caseRun) note(err error) {
	if err != nil {
		c.refusals++
	} else {
		c.survivals++
	}
}

// trip builds the case's one-shot fault, mapping the class to the
// operation it makes sense on. Substr confines the trip to the target's
// own files so open-time bookkeeping paths stay clean.
func (c *caseRun) trip(substr string) iofault.Trip {
	op := iofault.OpWrite
	switch c.class {
	case iofault.ClassEIO, iofault.ClassTornSync:
		op = iofault.OpSync
	case iofault.ClassRenameFail:
		op = iofault.OpRename
	}
	return iofault.Trip{Op: op, Class: c.class, N: 1 + c.rng.Intn(8), Substr: substr}
}

func (c *caseRun) faultFS(substr string) *iofault.FaultFS {
	ffs := iofault.NewFaultFS(iofault.OS{}, c.faultSeed)
	ffs.Arm(c.trip(substr))
	return ffs
}

// --- journal ---

var ioPolicy = queue.Policy{
	MaxDeliveries: 3,
	LeaseTimeout:  time.Minute,
	BackoffBase:   time.Second,
	BackoffCap:    4 * time.Second,
}

type ackedJob struct {
	id   uint64
	hash string
}

// pumpJobs runs n enqueue/lease/ack cycles, tolerating refusals (a
// failed transition is a clean refusal; the queue state must simply not
// run ahead of the journal). Returns the jobs whose acks SUCCEEDED.
func (c *caseRun) pumpJobs(q *queue.Queue, n int) []ackedJob {
	var acked []ackedJob
	for i := 0; i < n; i++ {
		spec, _ := json.Marshal(map[string]any{"case": c.idx, "i": i, "pad": string(make([]byte, c.rng.Intn(150)))})
		_, err := q.Enqueue(spec)
		c.note(err)
		if err != nil {
			continue
		}
		// TryLease hands out the OLDEST eligible job — after a refused ack
		// leaves one pending, that is not the job just enqueued — so the
		// acked bookkeeping keys off the lease, never the enqueue.
		l, _, err := q.TryLease("w0")
		c.note(err)
		if err != nil || l == nil {
			continue
		}
		hash := fmt.Sprintf("sha256-%064d", l.ID)
		err = q.Ack(l, hash, "")
		c.note(err)
		if err == nil {
			acked = append(acked, ackedJob{id: l.ID, hash: hash})
		}
	}
	return acked
}

func (c *caseRun) runJournal() {
	jdir := filepath.Join(c.dir, "journal")
	clock := func() time.Time { return time.Unix(1_700_000_000, 0) }
	opts := queue.JournalOptions{CompactBytes: 2 << 10, NoRollback: c.control}
	if c.control {
		// The negative control must keep the evidence: a compaction
		// would replace the file holding the planted partial frame with a
		// checkpoint, curing the corruption before the phase-C audit ever
		// reads it.
		opts.CompactBytes = -1
	}

	j, recs, _, err := queue.OpenJournal(iofault.OS{}, jdir, opts)
	if err != nil {
		c.failf("phase A open: %v", err)
		return
	}
	q, _, err := queue.Restore(ioPolicy, queue.Options{Journal: j, Clock: clock}, recs)
	if err != nil {
		c.failf("phase A restore: %v", err)
		return
	}
	acked := c.pumpJobs(q, 5+c.rng.Intn(10))
	q.Close()

	// Phase B: same journal through the adversary.
	ffs := c.faultFS("journal")
	var live []queue.JobInfo
	j, recs, _, err = queue.OpenJournal(ffs, jdir, opts)
	if err != nil {
		// The open itself was refused. Acceptable iff it changed nothing:
		// phase C must recover.
		c.refusals++
	} else {
		q, _, rerr := queue.Restore(ioPolicy, queue.Options{Journal: j, Clock: clock}, recs)
		if rerr != nil {
			c.refusals++
			j.Close()
		} else {
			acked = append(acked, c.pumpJobs(q, 8+c.rng.Intn(12))...)
			live = q.List()
			q.Close()
		}
	}
	c.injected = len(ffs.Log()) > 0

	// Phase C: clean reopen; disk alone must prove phase-B state.
	j2, recs2, _, err := queue.OpenJournal(iofault.OS{}, jdir, queue.JournalOptions{CompactBytes: 2 << 10})
	if err != nil {
		c.failf("corruption: clean reopen refused: %v", err)
		return
	}
	q2, _, err := queue.Restore(ioPolicy, queue.Options{Journal: j2, Clock: clock}, recs2)
	if err != nil {
		c.failf("corruption: replayed history does not apply: %v", err)
		j2.Close()
		return
	}
	defer q2.Close()
	if tmps, _ := filepath.Glob(filepath.Join(jdir, ".tmp-*")); len(tmps) > 0 {
		c.failf("compaction temp file %s survived the reopen", tmps[0])
	}

	for _, a := range acked {
		info, ok := q2.Get(a.id)
		if !ok {
			c.failf("lost acked job %d: absent after reopen", a.id)
			continue
		}
		if info.State != queue.StateDone || info.Hash != a.hash {
			c.failf("lost acked job %d: state %s hash %q after reopen, want done/%q",
				a.id, info.State, info.Hash, a.hash)
		}
	}
	if live != nil {
		c.auditTableMatches(live, q2)
	}
}

// auditTableMatches checks the recovered table against the live one
// from phase B. Jobs leased at close legitimately move (orphan expiry
// charges the delivery: pending-with-backoff or dead); everything else
// must match exactly, and no phantom jobs may appear.
func (c *caseRun) auditTableMatches(live []queue.JobInfo, q2 *queue.Queue) {
	recovered := make(map[uint64]queue.JobInfo)
	for _, info := range q2.List() {
		recovered[info.ID] = info
	}
	for _, want := range live {
		got, ok := recovered[want.ID]
		if !ok {
			c.failf("job %d vanished across reopen (was %s)", want.ID, want.State)
			continue
		}
		delete(recovered, want.ID)
		switch want.State {
		case queue.StateLeased:
			if got.State != queue.StatePending && got.State != queue.StateDead {
				c.failf("job %d: leased at close, %s after reopen (want orphan-expired)", want.ID, got.State)
			}
			if got.Deliveries != want.Deliveries {
				c.failf("job %d: deliveries %d after orphan expiry, want %d (charged, not re-run)",
					want.ID, got.Deliveries, want.Deliveries)
			}
		default:
			if got.State != want.State || got.Deliveries != want.Deliveries ||
				got.Hash != want.Hash || !bytes.Equal(got.Spec, want.Spec) {
				c.failf("job %d diverged across reopen: %s/%d/%q, want %s/%d/%q",
					want.ID, got.State, got.Deliveries, got.Hash,
					want.State, want.Deliveries, want.Hash)
			}
		}
	}
	for id, info := range recovered {
		c.failf("phantom job %d (%s) appeared after reopen", id, info.State)
	}
}

// --- artifact store ---

func (c *caseRun) runStore() {
	sdir := filepath.Join(c.dir, "store")
	committed := make(map[string][]byte)
	attempted := make(map[string][]byte)
	put := func(st *queue.Store) {
		body := make([]byte, 50+c.rng.Intn(400))
		c.rng.Read(body)
		attempted[queue.HashBytes(body)] = body
		hash, err := st.Put(body)
		c.note(err)
		if err == nil {
			committed[hash] = body
		}
	}

	st, err := queue.OpenStoreFS(iofault.OS{}, sdir)
	if err != nil {
		c.failf("phase A open: %v", err)
		return
	}
	for i, n := 0, 3+c.rng.Intn(4); i < n; i++ {
		put(st)
	}

	ffs := c.faultFS("objects")
	st2, err := queue.OpenStoreFS(ffs, sdir)
	if err != nil {
		c.refusals++
	} else {
		// The bound is redrawn every iteration: docs/iocampaign-*.json
		// pin the RNG stream this loop draws.
		for i := 0; i < 5+c.rng.Intn(6); i++ {
			put(st2)
		}
	}
	c.injected = len(ffs.Log()) > 0

	st3, err := queue.OpenStoreFS(iofault.OS{}, sdir)
	if err != nil {
		c.failf("corruption: clean reopen refused: %v", err)
		return
	}
	// Every committed put is durable and byte-exact under its address.
	for hash, body := range committed {
		got, err := st3.Get(hash)
		if err != nil {
			c.failf("lost committed object %s: %v", hash, err)
			continue
		}
		if !bytes.Equal(got, body) {
			c.failf("corrupt object %s: %d bytes differ from committed content", hash, len(got))
		}
	}
	// Every refused put left nothing half-visible under its address.
	for hash := range attempted {
		if _, ok := committed[hash]; ok {
			continue
		}
		if st3.Has(hash) {
			got, err := st3.Get(hash)
			if err != nil || !bytes.Equal(got, attempted[hash]) {
				c.failf("refused put left torn object visible at %s", hash)
			}
		}
	}
	// The reopen swept all temp debris, wherever it lies.
	filepath.Walk(sdir, func(p string, _ os.FileInfo, err error) error {
		if tmp, _ := filepath.Match(".tmp-*", filepath.Base(p)); tmp {
			c.failf("a temp file survived the reopen sweep")
		}
		return err
	})
}

// --- result cache ---

func (c *caseRun) runResultCache() {
	cdir := filepath.Join(c.dir, "cache")
	newKey := func() string {
		var b [32]byte
		c.rng.Read(b[:])
		d := sha256.Sum256(b[:])
		return hex.EncodeToString(d[:])
	}
	// lastGood is each key's last successfully-put payload: the only
	// content a later hit is allowed to serve.
	lastGood := make(map[string][]byte)
	var keys []string

	s, err := resultcache.OpenFS(iofault.OS{}, cdir)
	if err != nil {
		c.failf("phase A open: %v", err)
		return
	}
	for i := 0; i < 4+c.rng.Intn(4); i++ {
		k := newKey()
		payload := []byte(fmt.Sprintf("cells-%d-%d-%x", c.idx, i, c.rng.Int63()))
		if err := s.Put(k, payload); err != nil {
			c.failf("phase A put: %v", err)
			return
		}
		lastGood[k] = payload
		keys = append(keys, k)
	}

	ffs := c.faultFS("cells")
	s2, err := resultcache.OpenFS(ffs, cdir)
	if err != nil {
		c.refusals++
	} else {
		for i := 0; i < 6+c.rng.Intn(6); i++ {
			// Half the puts overwrite existing keys: a refused overwrite
			// must leave the OLD payload intact, not a mix.
			var k string
			if len(keys) > 0 && c.rng.Intn(2) == 0 {
				k = keys[c.rng.Intn(len(keys))]
			} else {
				k = newKey()
				keys = append(keys, k)
			}
			payload := []byte(fmt.Sprintf("cells-B-%d-%d-%x", c.idx, i, c.rng.Int63()))
			err := s2.Put(k, payload)
			c.note(err)
			if err == nil {
				lastGood[k] = payload
			}
		}
	}
	c.injected = len(ffs.Log()) > 0

	s3, err := resultcache.OpenFS(iofault.OS{}, cdir)
	if err != nil {
		c.failf("corruption: clean reopen refused: %v", err)
		return
	}
	for _, k := range keys {
		got, hit := s3.Get(k)
		want, committed := lastGood[k]
		switch {
		case hit && !committed:
			c.failf("poisoned hit: key %s serves %d bytes that were never committed", k, len(got))
		case hit && !bytes.Equal(got, want):
			c.failf("poisoned hit: key %s serves bytes differing from last committed put", k)
		case !hit && committed:
			c.failf("lost durable entry: key %s committed but misses after reopen", k)
		}
	}
}

// --- snapshot ---

func (c *caseRun) mkSnap(cycle uint64) snapshot.Snap {
	var b [16]byte
	c.rng.Read(b[:])
	return snapshot.Snap{
		Version:  snapshot.FormatVersion,
		Identity: fmt.Sprintf("iocampaign-case-%d", c.idx),
		Seed:     c.rng.Int63(),
		Cycle:    cycle,
		Sections: []snapshot.Section{{Name: "state", SHA256: hex.EncodeToString(b[:])}},
	}
}

func (c *caseRun) runSnapshot() {
	path := filepath.Join(c.dir, "snaps", "run.assn")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		c.failf("mkdir: %v", err)
		return
	}
	v1 := c.mkSnap(1000)
	if err := snapshot.WriteFileFS(iofault.OS{}, path, v1); err != nil {
		c.failf("phase A write: %v", err)
		return
	}
	ffs := c.faultFS("snaps")
	v2 := c.mkSnap(2000)
	werr := snapshot.WriteFileFS(ffs, path, v2)
	c.note(werr)
	c.injected = len(ffs.Log()) > 0

	got, err := snapshot.ReadFileFS(iofault.OS{}, path)
	if err != nil {
		c.failf("corruption: snapshot unreadable after faulted overwrite: %v", err)
		return
	}
	switch {
	case werr == nil && got.Digest() != v2.Digest():
		c.failf("snapshot write reported success but disk holds a different image")
	case werr != nil && got.Digest() != v1.Digest() && got.Digest() != v2.Digest():
		c.failf("torn snapshot: disk holds neither the old nor the new image")
	}
}
