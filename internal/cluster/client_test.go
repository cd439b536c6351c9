package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mobilenet/internal/scenario"
	"mobilenet/internal/simserve"
	"mobilenet/internal/sweep"
)

// seenRequest is one request a recorded worker received.
type seenRequest struct {
	method, path string
	header       http.Header
}

// hopLog records the requests a worker receives over the hop.
type hopLog struct {
	mu   sync.Mutex
	reqs []seenRequest
}

func (l *hopLog) all() []seenRequest {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]seenRequest(nil), l.reqs...)
}

// count returns how many recorded requests have the method and a path
// starting with prefix.
func (l *hopLog) count(method, prefix string) int {
	n := 0
	for _, r := range l.all() {
		if r.method == method && strings.HasPrefix(r.path, prefix) {
			n++
		}
	}
	return n
}

// recordedWorker boots an in-process worker behind a handler that records
// every request. intercept, when non-nil, may answer a request in the
// worker's stead by returning true.
func recordedWorker(t *testing.T, intercept func(s *simserve.Server, w http.ResponseWriter, r *http.Request) bool) (*simserve.Server, *httptest.Server, *hopLog) {
	t.Helper()
	return recordedWorkerWith(t, simserve.Config{Workers: 2}, intercept)
}

// recordedWorkerWith is recordedWorker over a worker built from cfg.
func recordedWorkerWith(t *testing.T, cfg simserve.Config, intercept func(s *simserve.Server, w http.ResponseWriter, r *http.Request) bool) (*simserve.Server, *httptest.Server, *hopLog) {
	t.Helper()
	s := simserve.New(cfg)
	log := &hopLog{}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		log.mu.Lock()
		log.reqs = append(log.reqs, seenRequest{r.Method, r.URL.Path, r.Header.Clone()})
		log.mu.Unlock()
		if intercept != nil && intercept(s, w, r) {
			return
		}
		s.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts, log
}

// executor returns an Executor over the given workers with no coordinator
// cache, so every point makes the hop.
func executor(t *testing.T, workers ...string) *Executor {
	t.Helper()
	e, err := New(Config{Workers: workers, RetryBase: time.Millisecond, RetryCap: 4 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// firstPoint returns the first point of the shared test sweep.
func firstPoint(t *testing.T) sweep.Point {
	t.Helper()
	points, err := testSweep().Expand()
	if err != nil {
		t.Fatal(err)
	}
	return points[0]
}

// TestPointRoundTrips pins the hop's round-trip count: an uncached point
// is one submit and one long-poll whose done view carries the payload,
// with no fetch; a point the worker already holds is one submit and one
// fetch. Not parallel: the single poll relies on the point finishing
// within one poll slice.
func TestPointRoundTrips(t *testing.T) {
	s, ts, log := recordedWorker(t, nil)
	e := executor(t, ts.URL)
	p := firstPoint(t)

	payload, cached, err := e.ExecutePoint(p, simserve.SubmitOptions{}, simserve.PointProgress{})
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("a cold point was reported cached")
	}
	if want, _ := s.Result(p.Hash); !bytes.Equal(payload, want) {
		t.Fatal("payload differs from the worker's cached bytes")
	}
	runs, polls, fetches := log.count("POST", "/v1/run"), log.count("GET", "/v1/jobs/"), log.count("GET", "/v1/results/")
	if runs != 1 || polls != 1 || fetches != 0 {
		t.Fatalf("uncached point: %d submits, %d polls, %d fetches; want 1, 1, 0", runs, polls, fetches)
	}

	payload, cached, err = e.ExecutePoint(p, simserve.SubmitOptions{}, simserve.PointProgress{})
	if err != nil {
		t.Fatal(err)
	}
	if !cached {
		t.Fatal("a point the worker holds was not reported cached")
	}
	if want, _ := s.Result(p.Hash); !bytes.Equal(payload, want) {
		t.Fatal("cached payload differs from the worker's bytes")
	}
	runs, polls, fetches = log.count("POST", "/v1/run")-runs, log.count("GET", "/v1/jobs/")-polls, log.count("GET", "/v1/results/")-fetches
	if runs != 1 || polls != 0 || fetches != 1 {
		t.Fatalf("cached point: %d submits, %d polls, %d fetches; want 1, 0, 1", runs, polls, fetches)
	}
}

// TestLostJobIsResubmitted: a worker that no longer knows the polled job —
// it restarted, so the id is unknown (404) or names another scenario — is a
// transient failure. The point is submitted again and served from what the
// worker holds, instead of being polled forever or answered with another
// scenario's bytes. The intercepted polls answer only once the real job
// has finished, as a worker that persisted the result before restarting
// would.
func TestLostJobIsResubmitted(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name   string
		answer func(w http.ResponseWriter, id string)
	}{
		{"unknown job", func(w http.ResponseWriter, id string) {
			w.WriteHeader(http.StatusNotFound)
			w.Write([]byte(`{"error":"unknown job"}`))
		}},
		{"another scenario", func(w http.ResponseWriter, id string) {
			json.NewEncoder(w).Encode(simserve.JobView{JobID: id, Hash: "another-scenario",
				Status: simserve.StatusDone, Result: json.RawMessage(`{"impostor":true}`)})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			s, ts, log := recordedWorker(t, func(s *simserve.Server, w http.ResponseWriter, r *http.Request) bool {
				id, ok := strings.CutPrefix(r.URL.Path, "/v1/jobs/")
				if !ok || r.Method != http.MethodGet {
					return false
				}
				s.Wait(r.Context(), id)
				tc.answer(w, id)
				return true
			})
			e := executor(t, ts.URL)
			p := firstPoint(t)

			var stop atomic.Bool
			t.Cleanup(func() { stop.Store(true) })
			type outcome struct {
				payload []byte
				err     error
			}
			done := make(chan outcome, 1)
			go func() {
				payload, _, err := e.ExecutePoint(p, simserve.SubmitOptions{}, simserve.PointProgress{Cancelled: stop.Load})
				done <- outcome{payload, err}
			}()
			select {
			case o := <-done:
				if o.err != nil {
					t.Fatal(o.err)
				}
				if want, _ := s.Result(p.Hash); !bytes.Equal(o.payload, want) {
					t.Fatalf("point answered with %s, not its own payload", o.payload)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("point still in flight after 10s (%d polls): the lost job was never resubmitted", log.count("GET", "/v1/jobs/"))
			}
			if runs := log.count("POST", "/v1/run"); runs != 2 {
				t.Fatalf("%d submits, want 2 (the original and one resubmission)", runs)
			}
		})
	}
}

// TestRunPointCancelledWithinOneSlice: against a job that never finishes,
// a cancelled sweep is noticed at the end of the current long-poll slice.
func TestRunPointCancelledWithinOneSlice(t *testing.T) {
	t.Parallel()
	const hash = "never-done"
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/run", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(simserve.Ticket{JobID: "job-1", Hash: hash, Status: simserve.StatusQueued})
	})
	mux.HandleFunc("GET /v1/jobs/job-1", func(w http.ResponseWriter, r *http.Request) {
		ms, err := strconv.Atoi(r.URL.Query().Get("wait_ms"))
		if err != nil {
			ms = 0
		}
		select {
		case <-time.After(time.Duration(ms) * time.Millisecond):
		case <-r.Context().Done():
		}
		json.NewEncoder(w).Encode(simserve.JobView{JobID: "job-1", Hash: hash, Status: simserve.StatusRunning})
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	var cancelled atomic.Bool
	done := make(chan error, 1)
	go func() {
		_, _, err := NewClient(ts.URL, nil).RunPoint(scenario.Spec{}, Hop{}, cancelled.Load)
		done <- err
	}()
	time.Sleep(3 * pollSlice / 2)
	cancelled.Store(true)
	t0 := time.Now()
	select {
	case err := <-done:
		if !permanent(err) {
			t.Fatalf("cancelled point returned %v, want a permanent error", err)
		}
		if d := time.Since(t0); d > pollSlice+time.Second {
			t.Fatalf("cancellation noticed %v after it happened, want within one %v slice", d, pollSlice)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("RunPoint never noticed the cancelled sweep")
	}
}

// TestHopCarriesRequestEnvelope: a sweep's request id, client id and
// deadline reach the worker over the hop — the request id on every round
// trip, the client id and remaining deadline on the submit — and the
// worker's job trace names the sweep's request. The deadline the worker
// sees is the coordinator's resolved one: here its MaxDeadline caps the
// sweep's 30 s ask at 20 s. A sweep with no deadline sends none.
func TestHopCarriesRequestEnvelope(t *testing.T) {
	t.Parallel()
	w, ts, log := recordedWorker(t, nil)
	exec := executor(t, ts.URL)
	coord := simserve.New(simserve.Config{Workers: 2, Executor: exec, MaxDeadline: 20 * time.Second})
	t.Cleanup(func() { coord.Shutdown(context.Background()) })

	const rid, client = "req-fleet-7", "client-a"
	ticket, err := coord.SubmitSweepWithOptions(testSweep(), simserve.SubmitOptions{
		RequestID: rid, Client: client, Deadline: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := coord.WaitSweep(ctx, ticket.SweepID); err != nil {
		t.Fatal(err)
	}

	reqs := log.all()
	if len(reqs) == 0 {
		t.Fatal("the worker saw no requests")
	}
	jobs := make(map[string]bool)
	for _, r := range reqs {
		if got := r.header.Get("X-Request-Id"); got != rid {
			t.Errorf("%s %s carried request id %q, want %q", r.method, r.path, got, rid)
		}
		if r.method == http.MethodPost {
			if got := r.header.Get("X-Client-Id"); got != client {
				t.Errorf("submit carried client id %q, want %q", got, client)
			}
			ms, err := strconv.Atoi(r.header.Get("X-Deadline-Ms"))
			if err != nil || ms < 1 || ms > 20000 {
				t.Errorf("submit carried X-Deadline-Ms %q, want 1..20000", r.header.Get("X-Deadline-Ms"))
			}
		}
		if id, ok := strings.CutPrefix(r.path, "/v1/jobs/"); ok {
			jobs[id] = true
		}
	}
	if len(jobs) == 0 {
		t.Fatal("no job was polled")
	}
	for id := range jobs {
		tr, ok, err := w.JobTrace(id)
		if !ok || err != nil {
			t.Fatalf("job %s trace: ok=%v err=%v", id, ok, err)
		}
		var buf bytes.Buffer
		if err := tr.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(buf.String(), `"request_id":"`+rid+`"`) {
			t.Errorf("job %s trace does not name the sweep's request %q", id, rid)
		}
	}

	// No deadline anywhere: the submit carries none.
	plain := simserve.New(simserve.Config{Workers: 2, Executor: exec})
	t.Cleanup(func() { plain.Shutdown(context.Background()) })
	before := len(log.all())
	waitSweep(t, plain, testSweep())
	for _, r := range log.all()[before:] {
		if r.method == http.MethodPost && r.header.Get("X-Deadline-Ms") != "" {
			t.Errorf("a point without a deadline sent X-Deadline-Ms %q", r.header.Get("X-Deadline-Ms"))
		}
	}
}
