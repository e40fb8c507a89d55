package queue

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func startTestServer(t *testing.T) (*Daemon, *httptest.Server) {
	t.Helper()
	d, err := Open(testDaemonConfig(t.TempDir(), testExec))
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	srv := httptest.NewServer(d.Handler())
	t.Cleanup(func() {
		srv.Close()
		d.Kill()
	})
	return d, srv
}

func TestServerSubmitPollFetch(t *testing.T) {
	d, srv := startTestServer(t)

	spec := `{"work":11,"spin":5}`
	resp, err := http.Post(srv.URL+"/api/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	var sub struct {
		ID     uint64 `json:"id"`
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Poll the status URL the submit response pointed at.
	deadline := time.Now().Add(10 * time.Second)
	var info JobInfo
	for {
		r, err := http.Get(srv.URL + sub.Status)
		if err != nil {
			t.Fatal(err)
		}
		if r.StatusCode != http.StatusOK {
			t.Fatalf("status poll %d", r.StatusCode)
		}
		if err := json.NewDecoder(r.Body).Decode(&info); err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if info.State == StateDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never finished: %+v", info)
		}
		time.Sleep(time.Millisecond)
	}

	// The result endpoint serves the artifact bytes; so does the
	// content-addressed artifacts endpoint.
	want, _ := testExec(context.Background(), json.RawMessage(spec))
	for _, path := range []string{
		fmt.Sprintf("/api/v1/jobs/%d/result", sub.ID),
		"/api/v1/artifacts/" + info.Hash,
	} {
		r, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(r.Body)
		r.Body.Close()
		if r.StatusCode != http.StatusOK || !bytes.Equal(body, want) {
			t.Fatalf("%s: status %d, %d bytes", path, r.StatusCode, len(body))
		}
	}

	// Stats reflect the completed job.
	r, err := http.Get(srv.URL + "/api/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if st.Depths.Done != 1 || st.Counters[CtrAcked] != 1 {
		t.Fatalf("stats: %+v", st)
	}
	_ = d
}

func TestServerRejectsBadSubmissions(t *testing.T) {
	_, srv := startTestServer(t)
	cases := []struct {
		body string
		want int
	}{
		{"not json", http.StatusBadRequest},
		{strings.Repeat("x", maxSpecBytes+2), http.StatusRequestEntityTooLarge},
	}
	for _, c := range cases {
		resp, err := http.Post(srv.URL+"/api/v1/jobs", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("submit %q...: status %d, want %d", c.body[:7], resp.StatusCode, c.want)
		}
	}
}

func TestServerResultNotReadyIs404(t *testing.T) {
	// A daemon whose executor never finishes: the job stays leased.
	cfg := testDaemonConfig(t.TempDir(), func(ctx context.Context, spec json.RawMessage) ([]byte, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	d, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	defer d.Kill()
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	id, err := d.Submit(json.RawMessage(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(fmt.Sprintf("%s/api/v1/jobs/%d/result", srv.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("result of unfinished job: status %d, want 404", resp.StatusCode)
	}
}

func TestServerUnknownJobAndBadIDs(t *testing.T) {
	_, srv := startTestServer(t)
	for path, want := range map[string]int{
		"/api/v1/jobs/999":      http.StatusNotFound,
		"/api/v1/jobs/banana":   http.StatusBadRequest,
		"/api/v1/artifacts/bad": http.StatusBadRequest,
		"/api/v1/artifacts/sha256-" + strings.Repeat("0", 64): http.StatusNotFound,
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s: status %d, want %d", path, resp.StatusCode, want)
		}
	}
}

func TestServerDrainingRejectsSubmitWith503(t *testing.T) {
	d, srv := startTestServer(t)
	if err := d.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/api/v1/jobs", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: status %d, want 503", resp.StatusCode)
	}
	// Liveness still answers during drain.
	r, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("healthz during drain: %d", r.StatusCode)
	}
}
