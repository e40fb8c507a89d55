package queue

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Handler returns the daemon's HTTP API:
//
//	POST /api/v1/jobs              submit a spec (body = spec JSON) -> {id}
//	GET  /api/v1/jobs              list jobs
//	GET  /api/v1/jobs/{id}         one job's status (incl. manifest hash)
//	GET  /api/v1/jobs/{id}/result  the job's result bytes (404 until done)
//	GET  /api/v1/jobs/{id}/manifest the job's artifact manifest (JSON)
//	GET  /api/v1/jobs/{id}/progress latest progress snapshot (JSON poll)
//	GET  /api/v1/jobs/{id}/events  live progress tail (SSE)
//	GET  /api/v1/artifacts/{hash}  artifact by content address
//	GET  /api/v1/stats             depth gauges, counters, recovery report
//	GET  /api/v1/series            queue-depth time series (CSV or JSON)
//	GET  /metrics                  Prometheus text exposition
//	GET  /healthz                  liveness (process is up)
//	GET  /readyz                   readiness (started, not draining)
//
// Submissions are rejected with 503 once a drain has begun, and with 400
// when the configured validator refuses the spec — invalid work never
// reaches the journal. Every route is instrumented: request counts by
// route and status, latency histograms by route.
func (d *Daemon) Handler() http.Handler {
	mux := http.NewServeMux()
	route := func(pattern string, h http.HandlerFunc) {
		// The route label is the pattern minus its method, so metric
		// cardinality is bounded by the route table, never by request IDs.
		label := pattern
		if i := strings.IndexByte(pattern, ' '); i >= 0 {
			label = pattern[i+1:]
		}
		mux.HandleFunc(pattern, d.instrument(label, h))
	}
	route("POST /api/v1/jobs", d.handleSubmit)
	route("GET /api/v1/jobs", d.handleList)
	route("GET /api/v1/jobs/{id}", d.handleJob)
	route("GET /api/v1/jobs/{id}/result", d.handleJobResult)
	route("GET /api/v1/jobs/{id}/manifest", d.handleJobManifest)
	route("GET /api/v1/jobs/{id}/progress", d.handleJobProgress)
	route("GET /api/v1/jobs/{id}/events", d.handleJobEvents)
	route("GET /api/v1/artifacts/{hash}", d.handleArtifact)
	route("GET /api/v1/stats", d.handleStats)
	route("GET /api/v1/series", d.handleSeries)
	route("GET /metrics", d.Metrics.Handler().ServeHTTP)
	route("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	route("GET /readyz", d.handleReady)
	return mux
}

// statusRecorder captures the response status for instrumentation. It
// passes http.Flusher through, which SSE streaming depends on.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (s *statusRecorder) WriteHeader(code int) {
	s.status = code
	s.ResponseWriter.WriteHeader(code)
}

func (s *statusRecorder) Flush() {
	if f, ok := s.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps a handler with request counting and latency
// observation under the given route label.
func (d *Daemon) instrument(label string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		t0 := time.Now()
		h(rec, r)
		d.met.httpRequests.With(label, strconv.Itoa(rec.status)).Inc()
		d.met.httpSeconds.With(label).Observe(time.Since(t0).Seconds())
	}
}

// maxSpecBytes bounds one submitted spec.
const maxSpecBytes = 1 << 20

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (d *Daemon) handleReady(w http.ResponseWriter, r *http.Request) {
	ok, reason := d.Ready()
	if !ok {
		writeError(w, http.StatusServiceUnavailable, errors.New(reason))
		return
	}
	fmt.Fprintln(w, "ok")
}

func (d *Daemon) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxSpecBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(body) > maxSpecBytes {
		writeError(w, http.StatusRequestEntityTooLarge, errors.New("spec exceeds 1 MiB"))
		return
	}
	if !json.Valid(body) {
		writeError(w, http.StatusBadRequest, errors.New("spec is not valid JSON"))
		return
	}
	id, err := d.Submit(json.RawMessage(body))
	switch {
	case err == nil:
	case errors.Is(err, ErrDraining), errors.Is(err, ErrDegraded):
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case errors.Is(err, ErrClosed):
		writeError(w, http.StatusServiceUnavailable, err)
		return
	default:
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]any{
		"id":     id,
		"state":  StatePending,
		"status": fmt.Sprintf("/api/v1/jobs/%d", id),
	})
}

func (d *Daemon) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, d.Q.List())
}

func (d *Daemon) jobFromPath(w http.ResponseWriter, r *http.Request) (JobInfo, bool) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, errors.New("job id must be an integer"))
		return JobInfo{}, false
	}
	info, ok := d.Q.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no job %d", id))
		return JobInfo{}, false
	}
	return info, true
}

func (d *Daemon) handleJob(w http.ResponseWriter, r *http.Request) {
	info, ok := d.jobFromPath(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (d *Daemon) handleJobResult(w http.ResponseWriter, r *http.Request) {
	info, ok := d.jobFromPath(w, r)
	if !ok {
		return
	}
	if info.State != StateDone {
		writeError(w, http.StatusNotFound,
			fmt.Errorf("job %d is %s, no result yet", info.ID, info.State))
		return
	}
	d.serveArtifact(w, r, info.Hash)
}

func (d *Daemon) handleJobManifest(w http.ResponseWriter, r *http.Request) {
	info, ok := d.jobFromPath(w, r)
	if !ok {
		return
	}
	if info.Manifest == "" {
		writeError(w, http.StatusNotFound,
			fmt.Errorf("job %d has no artifact manifest", info.ID))
		return
	}
	d.serveArtifact(w, r, info.Manifest)
}

// progressEventFor returns the job's current progress event: the hub's
// latest when the job ran (or is running) in this process, otherwise a
// state-derived event — so jobs completed before a restart still answer
// progress polls and SSE tails with their terminal verdict.
func (d *Daemon) progressEventFor(info JobInfo) ProgressEvent {
	if ev, ok := d.hub.latest(info.ID); ok {
		return ev
	}
	ev := ProgressEvent{JobID: info.ID, State: string(info.State)}
	switch info.State {
	case StateDone:
		ev.Terminal = true
		ev.Hash = info.Hash
		ev.Manifest = info.Manifest
	case StateDead:
		ev.Terminal = true
		ev.Error = info.LastError
	}
	return ev
}

func (d *Daemon) handleJobProgress(w http.ResponseWriter, r *http.Request) {
	info, ok := d.jobFromPath(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, d.progressEventFor(info))
}

// handleJobEvents live-tails one job's progress as Server-Sent Events.
// The stream replays the latest known event immediately, then forwards
// updates until a terminal event ("done" or "dead") or client
// disconnect. Events are `event: progress` frames with JSON data.
func (d *Daemon) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	info, ok := d.jobFromPath(w, r)
	if !ok {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, errors.New("streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	send := func(ev ProgressEvent) bool {
		data, err := json.Marshal(ev)
		if err != nil {
			return false
		}
		fmt.Fprintf(w, "event: progress\ndata: %s\n\n", data)
		fl.Flush()
		return !ev.Terminal
	}

	// Subscribe before the initial snapshot so no event can fall in the
	// gap; the hub pre-queues its latest event on subscribe, so a job
	// that already finished in this process terminates the stream on the
	// first read.
	ch, cancel := d.hub.subscribe(info.ID)
	defer cancel()
	if _, live := d.hub.latest(info.ID); !live {
		// No history in this process (pre-restart job, or not yet leased):
		// emit the state-derived snapshot.
		if !send(d.progressEventFor(info)) {
			return
		}
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case ev := <-ch:
			if !send(ev) {
				return
			}
		}
	}
}

func (d *Daemon) handleArtifact(w http.ResponseWriter, r *http.Request) {
	d.serveArtifact(w, r, r.PathValue("hash"))
}

func (d *Daemon) serveArtifact(w http.ResponseWriter, r *http.Request, hash string) {
	path, err := d.St.Path(hash)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if !d.St.Has(hash) {
		writeError(w, http.StatusNotFound, fmt.Errorf("no artifact %s", hash))
		return
	}
	w.Header().Set("Content-Type", d.contentTypeFor(hash))
	w.Header().Set("X-Content-Address", hash)
	http.ServeFile(w, r, path)
}

// wantsJSON implements the series endpoint's format negotiation:
// ?format=json wins, then the Accept header.
func wantsJSON(r *http.Request) bool {
	switch r.URL.Query().Get("format") {
	case "json":
		return true
	case "csv":
		return false
	}
	return strings.Contains(r.Header.Get("Accept"), "application/json")
}

func (d *Daemon) handleSeries(w http.ResponseWriter, r *http.Request) {
	if d.Rec == nil {
		writeError(w, http.StatusNotFound, errors.New("series recording disabled"))
		return
	}
	// Render under the lock, write after it: a slow client must not
	// stall the sampling ticker.
	var buf bytes.Buffer
	ctype := "text/csv; charset=utf-8"
	d.recMu.Lock()
	if wantsJSON(r) {
		ctype = "application/json"
		d.Rec.WriteJSON(&buf)
	} else {
		d.Rec.WriteCSV(&buf)
	}
	d.recMu.Unlock()
	w.Header().Set("Content-Type", ctype)
	w.Write(buf.Bytes())
}

func (d *Daemon) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, d.Stats())
}
