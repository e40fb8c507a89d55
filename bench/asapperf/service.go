package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"asap/internal/queue"
	"asap/internal/resultcache"
	"asap/internal/runner"
	"asap/internal/sweep"
)

// warmExperiments are the single-experiment quick sweeps of the job mix.
// Set-up runs each once, so in the timed phase their cells come from the
// result cache.
var warmExperiments = []string{"fig1", "fig8", "fig9a", "fig9b", "lhwpq", "design",
	"ablation-coalesce", "ablation-structs", "corun", "fences", "lifetime", "numa", "tail", "scaling"}

// Sizes of the service workload: full, and toy for the smoke test.
var (
	serviceJobs = 200
	toyJobs     = 6
	toyWarm     = []string{"ablation-structs", "fences"}
)

// codeVersion pins the result cache's code version, so a daemon built
// from a tree without a VCS stamp still caches.
const codeVersion = "asapperf"

// mixJob is one job a client submits.
type mixJob struct {
	Spec sweep.Spec
	// Download also fetches every artifact of the job's manifest.
	Download bool
}

// profileBenches are the benchmarks profile jobs run. TPCC is left out:
// its profile takes about 400 ms, four times any other job's, and holds
// the daemon's sweep lock all that time, so the jobs that happen to
// queue behind one would decide the 95th percentile.
var profileBenches = []string{"BN", "BT", "CT", "EO", "HM", "Q", "RB", "SS"}

// jobMix returns n jobs in an order drawn from seed: 60 % warm
// single-experiment sweeps, 20 % config or area, 20 % uncacheable
// profile runs; one job in four also downloads its artifacts. Which jobs
// make up the mix depends on n alone: the kinds are taken round-robin
// (every warm experiment, both of config and area, every profiled
// benchmark, and downloads spread over all of them), and only their
// order comes from the seed, so the work does not change from seed to
// seed.
func jobMix(seed int64, n int, warm []string) []mixJob {
	nWarm, nProfile := n*6/10, n*2/10
	jobs := make([]mixJob, n)
	for i := range jobs {
		spec := sweep.Spec{Scale: "quick"}
		switch {
		case i < nWarm:
			spec.Experiments = []string{warm[i%len(warm)]}
		case i < nWarm+nProfile:
			spec.Experiments = []string{"profile"}
			spec.ProfileBench = profileBenches[(i-nWarm)%len(profileBenches)]
		default:
			spec.Experiments = []string{[]string{"config", "area"}[i%2]}
		}
		jobs[i] = mixJob{Spec: spec, Download: i%4 == 0}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(n, func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	return jobs
}

// warmJobs returns one job per warm experiment.
func warmJobs(warm []string) []mixJob {
	jobs := make([]mixJob, len(warm))
	for i, name := range warm {
		jobs[i] = mixJob{Spec: sweep.Spec{Experiments: []string{name}, Scale: "quick"}}
	}
	return jobs
}

// svcOracle holds the expected result of every job of a mix.
type svcOracle struct {
	sections map[string][]byte // quick-scale output per experiment
	profiles map[string][]byte // "profile" output per benchmark
}

// newSvcOracle reads the recorded quick-scale sections and computes the
// profile outputs the jobs need in this process through sweep.Execute.
func newSvcOracle(root string, jobs []mixJob) (*svcOracle, error) {
	doc, err := os.ReadFile(filepath.Join(root, quickOracle))
	if err != nil {
		return nil, err
	}
	o := &svcOracle{sections: splitSections(doc), profiles: map[string][]byte{}}
	for _, j := range jobs {
		b := j.Spec.ProfileBench
		if j.Spec.Experiments[0] != "profile" || o.profiles[b] != nil {
			continue
		}
		var out bytes.Buffer
		spec := sweep.Spec{Experiments: []string{"profile"}, Scale: "quick", ProfileBench: b}
		if _, err := sweep.Execute(context.Background(), spec, &out, sweep.Options{Pool: runner.New(simWidth())}); err != nil {
			return nil, err
		}
		o.profiles[b] = out.Bytes()
	}
	return o, nil
}

func (o *svcOracle) want(s sweep.Spec) []byte {
	if s.Experiments[0] == "profile" {
		return o.profiles[s.ProfileBench]
	}
	return o.sections[s.Experiments[0]]
}

// manifestKinds are the artifacts every job's manifest must list.
var manifestKinds = []string{queue.KindResult, queue.KindProfile, queue.KindTimeline, queue.KindSeries}

// jobOutcome is what a client saw of one job.
type jobOutcome struct {
	err error
	// latency runs from submit to the last result byte received.
	latency, submit, fetch time.Duration
	artifactBytes          int64
	result                 string   // content address of the result
	names                  []string // manifest artifact names
}

// client is one closed-loop client: it sends its next job only after the
// previous one's result and manifest arrived. It holds at most one
// connection.
type client struct {
	base   string
	http   *http.Client
	oracle *svcOracle
}

func newClient(base string, oracle *svcOracle) *client {
	return &client{
		base:   base,
		http:   &http.Client{Timeout: time.Minute, Transport: &http.Transport{MaxConnsPerHost: 1, DisableCompression: true}},
		oracle: oracle,
	}
}

// runJobs sends jobs from two closed-loop clients (client k sends jobs k,
// k+2, ...) and returns each job's outcome by index.
func runJobs(base string, jobs []mixJob, oracle *svcOracle) []jobOutcome {
	out := make([]jobOutcome, len(jobs))
	var wg sync.WaitGroup
	for k := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(base, oracle)
			defer c.http.CloseIdleConnections()
			for i := k; i < len(jobs); i += 2 {
				out[i] = c.run(jobs[i])
			}
		}()
	}
	wg.Wait()
	return out
}

// run submits one job, waits for it on its event stream, fetches and
// checks its result and manifest, and, when asked, every artifact.
func (c *client) run(j mixJob) (o jobOutcome) {
	spec, err := json.Marshal(j.Spec)
	if err != nil {
		return jobOutcome{err: err}
	}
	t0 := time.Now()
	id, err := c.submit(spec)
	o.submit = time.Since(t0)
	if err != nil {
		o.err = err
		return o
	}
	if state, err := c.await(id); err != nil || state != "done" {
		o.err = fmt.Errorf("job %d ended %q: %v", id, state, err)
		return o
	}
	t1 := time.Now()
	result, err := c.get(fmt.Sprintf("/api/v1/jobs/%d/result", id))
	o.fetch, o.latency = time.Since(t1), time.Since(t0)
	if err != nil {
		o.err = err
		return o
	}
	o.result = queue.HashBytes(result)
	if !bytes.Equal(result, c.oracle.want(j.Spec)) {
		o.err = fmt.Errorf("job %d (%s): result differs from the oracle", id, spec)
		return o
	}
	mb, err := c.get(fmt.Sprintf("/api/v1/jobs/%d/manifest", id))
	if err != nil {
		o.err = err
		return o
	}
	m, err := queue.DecodeManifest(mb)
	if err != nil {
		o.err = err
		return o
	}
	kinds := map[string]bool{}
	for _, a := range m.Artifacts {
		kinds[a.Kind] = true
		o.names = append(o.names, a.Name)
	}
	for _, k := range manifestKinds {
		if !kinds[k] {
			o.err = fmt.Errorf("job %d: manifest lists no %s artifact", id, k)
			return o
		}
	}
	if j.Download {
		for _, a := range m.Artifacts {
			b, err := c.get("/api/v1/artifacts/" + a.Hash)
			if err == nil && (queue.HashBytes(b) != a.Hash || int64(len(b)) != a.Bytes) {
				err = fmt.Errorf("artifact %s does not match its address", a.Name)
			}
			if err != nil {
				o.err = err
				return o
			}
			o.artifactBytes += int64(len(b))
		}
	}
	return o
}

func (c *client) submit(spec []byte) (uint64, error) {
	resp, err := c.http.Post(c.base+"/api/v1/jobs", "application/json", bytes.NewReader(spec))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusAccepted {
		return 0, fmt.Errorf("submit: %s: %s", resp.Status, body)
	}
	var ack struct {
		ID uint64 `json:"id"`
	}
	if err := json.Unmarshal(body, &ack); err != nil {
		return 0, fmt.Errorf("submit: %w", err)
	}
	return ack.ID, nil
}

// await reads the job's server-sent event stream until its terminal
// event and returns the final state.
func (c *client) await(id uint64) (string, error) {
	resp, err := c.http.Get(fmt.Sprintf("%s/api/v1/jobs/%d/events", c.base, id))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("events: %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev queue.ProgressEvent
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return "", fmt.Errorf("events: %w", err)
		}
		if ev.Terminal {
			// The server ends the stream after the terminal event; reading
			// to the end lets the connection be reused.
			_, err := io.Copy(io.Discard, resp.Body)
			return ev.State, err
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", errors.New("events: stream ended before a terminal event")
}

func (c *client) get(path string) ([]byte, error) {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return b, nil
}

// scrape reads the daemon's /metrics.
func scrape(base string) (expo, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return parseExpo(resp.Body)
}

// daemon is an asapd child process on a temporary data directory.
type daemon struct {
	cmd  *exec.Cmd
	dir  string
	base string
	log  *logWatch
}

// startDaemon starts asapd on a loopback port of its choosing and waits
// until it reports ready.
func startDaemon(bin string) (*daemon, error) {
	dir, err := os.MkdirTemp("", "asapd-*")
	if err != nil {
		return nil, err
	}
	d := &daemon{dir: dir, log: &logWatch{addr: make(chan string, 1)}}
	d.cmd = exec.Command(bin, "-addr", "127.0.0.1:0", "-dir", dir)
	d.cmd.Env = append(os.Environ(), resultcache.CodeVersionEnv+"="+codeVersion)
	d.cmd.Stderr = d.log
	// Should this process die first, the kernel kills the daemon too.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	select {
	case addr := <-d.log.addr:
		d.base = "http://" + addr
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, fmt.Errorf("asapd did not start serving: %s", d.log.tail())
	}
	if err := waitReady(d.base, 30*time.Second); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// waitReady polls /readyz until it answers 200.
func waitReady(base string, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s/readyz not ready after %v", base, limit)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// stop asks the daemon to drain, kills it if it has not exited within a
// minute, waits for it, and removes its data directory.
func (d *daemon) stop() error {
	d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	var err error
	select {
	case err = <-done:
	case <-time.After(time.Minute):
		d.cmd.Process.Kill()
		err = <-done
	}
	if rerr := os.RemoveAll(d.dir); err == nil {
		err = rerr
	}
	if err != nil {
		return fmt.Errorf("asapd: %w: %s", err, d.log.tail())
	}
	return nil
}

// logWatch receives the daemon's log: it reports the address from the
// "serving" line and keeps the tail for error messages.
type logWatch struct {
	mu   sync.Mutex
	buf  []byte
	addr chan string
	sent bool
}

func (w *logWatch) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf = append(w.buf, p...)
	if !w.sent {
		for _, line := range strings.Split(string(w.buf), "\n") {
			if !strings.Contains(line, "msg=serving") {
				continue
			}
			for _, f := range strings.Fields(line) {
				if a, ok := strings.CutPrefix(f, "addr="); ok {
					w.addr <- a
					w.sent = true
				}
			}
		}
	}
	if len(w.buf) > 64<<10 {
		w.buf = w.buf[len(w.buf)-32<<10:]
	}
	return len(p), nil
}

func (w *logWatch) tail() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return string(w.buf[max(0, len(w.buf)-2048):])
}

// serviceRun is service-mix set up once: an asapd child with a warm
// result cache.
type serviceRun struct {
	jobs   []mixJob
	warm   []mixJob
	oracle *svcOracle
	d      *daemon
	// last holds the untraced pass's outcomes, which the traced pass's
	// in-process daemon must reproduce.
	last []jobOutcome
}

func prepareService(opt runOptions) (func() (workloadRun, error), error) {
	n, warm := serviceJobs, warmExperiments
	if opt.toy {
		n, warm = toyJobs, toyWarm
	}
	jobs := jobMix(opt.seed, n, warm)
	oracle, err := newSvcOracle(opt.root, jobs)
	if err != nil {
		return nil, err
	}
	return func() (workloadRun, error) {
		s := &serviceRun{jobs: jobs, warm: warmJobs(warm), oracle: oracle}
		d, err := startDaemon(opt.asapd)
		if err != nil {
			return nil, err
		}
		s.d = d
		if err := warmUp(d.base, s.warm, oracle); err != nil {
			d.stop()
			return nil, err
		}
		return s, nil
	}, nil
}

// warmUp runs the warm jobs, filling the result cache.
func warmUp(base string, jobs []mixJob, oracle *svcOracle) error {
	for _, o := range runJobs(base, jobs, oracle) {
		if o.err != nil {
			return fmt.Errorf("warm-up: %w", o.err)
		}
	}
	return nil
}

func (s *serviceRun) pid() string { return strconv.Itoa(s.d.cmd.Process.Pid) }

func (s *serviceRun) close() error { return s.d.stop() }

func (s *serviceRun) pass(traced bool) (passResult, error) {
	if traced {
		return s.tracedPass()
	}
	var p passResult
	pid := s.d.cmd.Process.Pid
	before, err := scrape(s.d.base)
	if err != nil {
		return p, err
	}
	d0, err := procCPU(pid)
	if err != nil {
		return p, err
	}
	c0, t0 := selfCPU(), time.Now()
	outs := runJobs(s.d.base, s.jobs, s.oracle)
	p.wall = time.Since(t0)
	client := selfCPU() - c0
	d1, err := procCPU(pid)
	if err != nil {
		return p, err
	}
	p.cpu = d1 - d0
	after, err := scrape(s.d.base)
	if err != nil {
		return p, err
	}
	m := after.delta(before)
	s.last = outs
	n := float64(len(outs))
	p.layers = map[string]float64{
		"queue.journal_appends_per_job": m.sum("asapd_journal_appends_total") / n,
		"queue.store_puts_per_job":      m.sum("asapd_store_puts_total") / n,
		"asapd.cpu_ms_per_job":          ms(p.cpu) / n,
		"client.cpu_s":                  client.Seconds(),
	}
	// The dedup ratio is the bytes handed to Put per byte newly stored.
	if stored := m[`asapd_store_bytes{store="artifacts"}`]; stored > 0 {
		p.layers["queue.store_dedup_ratio"] = m.sum("asapd_store_put_bytes_total") / stored
	}
	hits, misses := m.sum("asapd_resultcache_hits"), m.sum("asapd_resultcache_misses")
	if hits+misses > 0 {
		p.layers["resultcache.hit_ratio"] = hits / (hits + misses)
	}
	tallyJobs(&p, outs)
	// A daemon whose cache is off still answers correctly, only slower;
	// the benchmark must not measure that daemon in place of the real one.
	p.attempted++
	if hits == 0 {
		fmt.Fprintln(os.Stderr, "asapperf: asapd served no result-cache hits; its cache is off")
		p.failed++
	}
	return p, nil
}

// tallyJobs records the outcomes as checked operations, latencies and
// the client-side server metrics.
func tallyJobs(p *passResult, outs []jobOutcome) {
	var submit, fetch []float64
	var artifacts int64
	for _, o := range outs {
		p.attempted++
		if o.err != nil {
			fmt.Fprintln(os.Stderr, "asapperf:", o.err)
			p.failed++
			continue
		}
		p.ops++
		p.latencies = append(p.latencies, ms(o.latency))
		submit = append(submit, ms(o.submit))
		fetch = append(fetch, ms(o.fetch))
		artifacts += o.artifactBytes
	}
	p.layers["server.submit_ms_p50"] = percentile(submit, 50)
	p.layers["server.submit_ms_p95"] = percentile(submit, 95)
	p.layers["server.fetch_ms_p50"] = percentile(fetch, 50)
	p.layers["server.artifact_mb"] = float64(artifacts) / (1 << 20)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
