package simserve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"mobilenet/internal/chaos"
)

// plantRunning plants a job that never finishes (tests are in-package),
// the way TestJobTraceEndpoint plants job-hung.
func plantRunning(s *Server, id string) {
	s.mu.Lock()
	s.jobs[id] = &job{id: id, hash: "hash-" + id, status: StatusRunning}
	s.mu.Unlock()
}

// pollWait GETs /v1/jobs/{id}?wait_ms=wait and returns the reply's status,
// its decoded view (on 200) and how long the reply took.
func pollWait(t *testing.T, base, id, wait string) (int, JobView, time.Duration) {
	t.Helper()
	t0 := time.Now()
	resp, err := http.Get(base + "/v1/jobs/" + id + "?" + waitParam + "=" + wait)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	elapsed := time.Since(t0)
	if err != nil {
		t.Fatal(err)
	}
	var v JobView
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, v, elapsed
}

// TestJobLongPollWaitsOutRunningJob: a long-poll of a job that does not
// finish answers "running" once the wait elapses, and a wait beyond the
// clamp (here one that would overflow a Duration unclamped) ends at
// maxJobWait.
func TestJobLongPollWaitsOutRunningJob(t *testing.T) {
	t.Parallel()
	s, ts := testServer(t, Config{Workers: 1})
	plantRunning(s, "job-hung")
	for _, tc := range []struct {
		wait     string
		min, max time.Duration
	}{
		{"50", 50 * time.Millisecond, maxJobWait},
		{"9000000000000", maxJobWait, maxJobWait + 5*time.Second},
	} {
		code, v, elapsed := pollWait(t, ts.URL, "job-hung", tc.wait)
		if code != http.StatusOK || v.Status != StatusRunning {
			t.Fatalf("wait_ms=%s: %d %q, want 200 running", tc.wait, code, v.Status)
		}
		if elapsed < tc.min || elapsed >= tc.max {
			t.Fatalf("wait_ms=%s answered after %v, want in [%v, %v)", tc.wait, elapsed, tc.min, tc.max)
		}
	}
}

// TestJobLongPollAnswersOnCompletion: a job that finishes during the wait
// is answered when it finishes, not when the wait elapses, and the done
// view's result is byte-identical to /v1/results/{hash}. Injected queue
// latency holds the job back so that it is still queued when the poll
// arrives.
func TestJobLongPollAnswersOnCompletion(t *testing.T) {
	t.Parallel()
	const hold = 200 * time.Millisecond
	in, err := chaos.Parse("queue-latency:1:" + hold.String())
	if err != nil {
		t.Fatal(err)
	}
	_, ts := testServer(t, Config{Workers: 1, Chaos: in})
	ticket, code := postSpec(t, ts, fastSpec(41))
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", code)
	}
	code, v, elapsed := pollWait(t, ts.URL, ticket.JobID, "60000")
	if code != http.StatusOK || v.Status != StatusDone {
		t.Fatalf("long-poll: %d %q (%s), want 200 done", code, v.Status, v.Error)
	}
	if elapsed >= maxJobWait {
		t.Fatalf("long-poll answered after %v: it waited out the clamp instead of waking on completion", elapsed)
	}
	if v.Hash != ticket.Hash {
		t.Fatalf("view hash %s, ticket hash %s", v.Hash, ticket.Hash)
	}
	want, code := getBody(t, ts.URL+"/v1/results/"+ticket.Hash)
	if code != http.StatusOK {
		t.Fatalf("results status %d", code)
	}
	if !bytes.Equal(v.Result, want) {
		t.Fatalf("done view result differs from /v1/results:\n%s\n%s", v.Result, want)
	}
}

// TestJobLongPollRejectsBadWait: like X-Deadline-Ms, a stated wait must be
// a positive integer of milliseconds; and an unknown job is a 404 at once,
// however long the poll offered to wait.
func TestJobLongPollRejectsBadWait(t *testing.T) {
	t.Parallel()
	s, ts := testServer(t, Config{Workers: 1})
	plantRunning(s, "job-hung")
	for _, bad := range []string{"0", "-5", "soon", "1.5", "99999999999999999999"} {
		if code, _, _ := pollWait(t, ts.URL, "job-hung", bad); code != http.StatusBadRequest {
			t.Errorf("wait_ms=%s answered %d, want 400", bad, code)
		}
	}
	code, _, elapsed := pollWait(t, ts.URL, "job-unknown", "60000")
	if code != http.StatusNotFound {
		t.Fatalf("unknown job answered %d, want 404", code)
	}
	if elapsed >= maxJobWait/2 {
		t.Fatalf("unknown job answered after %v: it waited", elapsed)
	}
}

// TestJobLongPollEndsOnClientDisconnect: the wait is bounded by the
// request's own context, so a client that goes away frees the handler
// instead of holding it for the full wait.
func TestJobLongPollEndsOnClientDisconnect(t *testing.T) {
	t.Parallel()
	s, _ := testServer(t, Config{Workers: 1})
	plantRunning(s, "job-hung")
	served := make(chan time.Duration, 1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		s.ServeHTTP(w, r)
		served <- time.Since(t0)
	}))
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/jobs/job-hung?wait_ms=60000", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := http.DefaultClient.Do(req); !errors.Is(err, context.DeadlineExceeded) {
		if err == nil {
			resp.Body.Close()
		}
		t.Fatalf("client request ended with %v, want its own deadline", err)
	}
	select {
	case d := <-served:
		if d >= maxJobWait {
			t.Fatalf("handler held the poll %v after its client left", d)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("handler never returned after its client left")
	}
}
