package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"asap/internal/iofault"
	"asap/internal/queue"
	"asap/internal/report"
	"asap/internal/resultcache"
	"asap/internal/runner"
	"asap/internal/sweep"
)

// span is one timed call at a layer boundary. Names are
// "<layer>.<operation>": journal.sync, store.write, resultcache.read,
// sweep.execute and so on.
type span struct {
	name       string
	start, end time.Time
	bytes      int64
}

// spanLog keeps spans in memory until the pass ends.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

func (l *spanLog) record(name string, start time.Time, bytes int64) {
	end := time.Now()
	l.mu.Lock()
	l.spans = append(l.spans, span{name: name, start: start, end: end, bytes: bytes})
	l.mu.Unlock()
}

func (l *spanLog) reset() {
	l.mu.Lock()
	l.spans = nil
	l.mu.Unlock()
}

// stat returns the durations in milliseconds, their total, and the bytes
// of every span called name, or, for a name ending in ".", of every span
// of that layer.
func (l *spanLog) stat(name string) (durs []float64, total time.Duration, bytes int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, s := range l.spans {
		if s.name == name || strings.HasSuffix(name, ".") && strings.HasPrefix(s.name, name) {
			d := s.end.Sub(s.start)
			durs = append(durs, ms(d))
			total += d
			bytes += s.bytes
		}
	}
	return durs, total, bytes
}

// timingFS is the iofault.FS under the traced daemon's journal, artifact
// store and result cache. It records a span for every write, sync,
// rename, directory sync and whole-file read, named by the store the
// path belongs to.
type timingFS struct {
	iofault.FS
	root string // the daemon's data directory
	log  *spanLog
}

// class names the store a path belongs to.
func (f timingFS) class(path string) string {
	rel, err := filepath.Rel(f.root, path)
	if err != nil {
		return "fs"
	}
	first, _, _ := strings.Cut(filepath.ToSlash(rel), "/")
	switch {
	case first == "resultcache":
		return "resultcache"
	case first == "objects":
		return "store"
	case first == "." || strings.HasPrefix(first, "journal"):
		// The data directory itself is synced only when journal
		// segments are created or removed.
		return "journal"
	}
	return "fs"
}

func (f timingFS) OpenFile(name string, flag int, perm os.FileMode) (iofault.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return timingFile{File: file, class: f.class(name), log: f.log}, nil
}

func (f timingFS) CreateTemp(dir, pattern string) (iofault.File, error) {
	file, err := f.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return timingFile{File: file, class: f.class(file.Name()), log: f.log}, nil
}

func (f timingFS) ReadFile(name string) ([]byte, error) {
	t0 := time.Now()
	b, err := f.FS.ReadFile(name)
	f.log.record(f.class(name)+".read", t0, int64(len(b)))
	return b, err
}

func (f timingFS) Rename(oldpath, newpath string) error {
	t0 := time.Now()
	err := f.FS.Rename(oldpath, newpath)
	f.log.record(f.class(newpath)+".rename", t0, 0)
	return err
}

func (f timingFS) SyncDir(dir string) error {
	t0 := time.Now()
	err := f.FS.SyncDir(dir)
	f.log.record(f.class(dir)+".syncdir", t0, 0)
	return err
}

type timingFile struct {
	iofault.File
	class string
	log   *spanLog
}

func (f timingFile) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := f.File.Write(p)
	f.log.record(f.class+".write", t0, int64(n))
	return n, err
}

func (f timingFile) Sync() error {
	t0 := time.Now()
	err := f.File.Sync()
	f.log.record(f.class+".sync", t0, 0)
	return err
}

// tracedExec is cmd/asapd's job executor with spans around the two calls
// that do a job's work, sweep.Execute and sweep.ObserveArtifacts.
func tracedExec(cache *resultcache.Store, log *spanLog) queue.Executor {
	return func(ctx context.Context, raw json.RawMessage) ([]byte, error) {
		var spec sweep.Spec
		if err := json.Unmarshal(raw, &spec); err != nil {
			return nil, err
		}
		tracker := report.NewTracker()
		tracker.SetOnUpdate(func(s report.Snapshot) { queue.PublishProgress(ctx, s) })
		pool := runner.New(spec.Parallel)
		pool.SetReporter(tracker)
		var out bytes.Buffer
		t0 := time.Now()
		results, err := sweep.Execute(ctx, spec, &out, sweep.Options{
			Pool:         pool,
			Cache:        cache,
			CodeVersion:  codeVersion,
			OnExperiment: func(string, time.Duration, error) { queue.Heartbeat(ctx) },
		})
		log.record("sweep.execute", t0, int64(out.Len()))
		if err != nil {
			return nil, err
		}
		var failed []string
		for _, r := range results {
			if r.Error != "" {
				failed = append(failed, fmt.Sprintf("%s: %s", r.Name, r.Error))
			}
		}
		if len(failed) > 0 {
			return nil, fmt.Errorf("%d experiments failed: %v", len(failed), failed)
		}
		if queue.WantsArtifacts(ctx) {
			t1 := time.Now()
			arts, oerr := sweep.ObserveArtifacts(spec)
			var n int64
			for _, a := range arts {
				n += int64(len(a.Data))
			}
			log.record("sweep.observe", t1, n)
			if oerr != nil {
				slog.Warn("observe artifacts failed", "error", oerr)
			}
			for _, a := range arts {
				queue.AddArtifact(ctx, queue.RawArtifact{Name: a.Name, Kind: a.Kind, ContentType: a.ContentType, Data: a.Data})
			}
			queue.Heartbeat(ctx)
		}
		return out.Bytes(), nil
	}
}

func validateSpec(raw json.RawMessage) error {
	var spec sweep.Spec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("parsing sweep spec: %w", err)
	}
	return spec.Validate()
}

// tracedPass runs the same jobs against an in-process daemon configured
// like asapd, with spans at the filesystem seam and around the executor,
// under a CPU profile. Its results must match the asapd child's.
func (s *serviceRun) tracedPass() (passResult, error) {
	var p passResult
	dir, err := os.MkdirTemp("", "asapd-traced-*")
	if err != nil {
		return p, err
	}
	defer os.RemoveAll(dir)
	log := &spanLog{}
	fsys := timingFS{FS: iofault.OS{}, root: dir, log: log}
	cache, err := resultcache.OpenFS(fsys, filepath.Join(dir, "resultcache"))
	if err != nil {
		return p, err
	}
	d, err := queue.Open(queue.Config{
		Dir:               dir,
		Workers:           2,
		Exec:              tracedExec(cache, log),
		Validate:          validateSpec,
		Logger:            queue.DiscardLogger(),
		ResultContentType: "text/plain; charset=utf-8",
		FS:                fsys,
		CacheUsage:        cache.Bytes,
		CacheShed:         cache.Shed,
	})
	if err != nil {
		return p, err
	}
	d.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.Drain(context.Background())
		return p, err
	}
	srv := &http.Server{Handler: d.Handler()}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		d.Drain(context.Background())
		srv.Shutdown(context.Background())
		<-served
	}()
	base := "http://" + ln.Addr().String()
	if err := warmUp(base, s.warm, s.oracle); err != nil {
		return p, err
	}

	log.reset()
	hits0, _, _ := cache.Stats()
	m0 := readMem()
	var outs []jobOutcome
	layers, err := profiled(func() error {
		c0, t0 := selfCPU(), time.Now()
		outs = runJobs(base, s.jobs, s.oracle)
		p.wall, p.cpu = time.Since(t0), selfCPU()-c0
		return nil
	})
	if err != nil {
		return p, err
	}
	p.layers = layers
	for k, v := range memDelta(m0, readMem()) {
		p.layers[k] = v
	}
	tallyJobs(&p, outs)
	p.attempted++
	if hits, _, _ := cache.Stats(); hits == hits0 {
		fmt.Fprintln(os.Stderr, "asapperf: the traced daemon served no result-cache hits")
		p.failed++
	}
	var latency time.Duration
	for i, o := range outs {
		latency += o.latency
		// The in-process daemon must give every job the result and
		// artifact names the asapd child gave it.
		if o.err == nil && (o.result != s.last[i].result || !slices.Equal(o.names, s.last[i].names)) {
			fmt.Fprintf(os.Stderr, "asapperf: job %d differs between asapd and the traced daemon\n", i)
			p.failed++
		}
	}
	for k, v := range spanLayers(log, latency, len(outs)) {
		p.layers[k] = v
	}
	return p, nil
}

// spanLayers turns the spans of a pass into per_layer metrics. Shares
// are of the summed job latency: each span runs on behalf of one job and
// inside its latency, so the shares and svc.unattributed_share (queue
// wait, HTTP, event streaming) sum to 1. Result-cache reads happen inside
// sweep.Execute and are taken out of its self time.
func spanLayers(log *spanLog, latency time.Duration, jobs int) map[string]float64 {
	share := func(d time.Duration) float64 { return float64(d) / float64(latency) }
	jSync, _, _ := log.stat("journal.sync")
	_, journal, _ := log.stat("journal.")
	sSync, _, _ := log.stat("store.sync")
	_, store, _ := log.stat("store.")
	_, _, storeWritten := log.stat("store.write")
	rcRead, rcTotal, _ := log.stat("resultcache.read")
	exec, execTotal, _ := log.stat("sweep.execute")
	obs, obsTotal, obsBytes := log.stat("sweep.observe")
	return map[string]float64{
		"queue.journal_sync_ms_p50": percentile(jSync, 50),
		"queue.journal_sync_ms_p95": percentile(jSync, 95),
		"queue.journal_sync_share":  share(journal),
		"queue.store_sync_ms_p50":   percentile(sSync, 50),
		"queue.store_sync_share":    share(store),
		"queue.store_write_mb":      float64(storeWritten) / (1 << 20),
		"resultcache.read_ms_p50":   percentile(rcRead, 50),
		"resultcache.read_share":    share(rcTotal),
		"sweep.execute_ms_p50":      percentile(exec, 50),
		"sweep.execute_share":       share(execTotal - rcTotal),
		"sweep.observe_ms_p50":      percentile(obs, 50),
		"sweep.observe_share":       share(obsTotal),
		"sweep.observe_mb_per_job":  float64(obsBytes) / (1 << 20) / float64(jobs),
		"svc.unattributed_share":    1 - share(journal+store+execTotal+obsTotal),
	}
}
