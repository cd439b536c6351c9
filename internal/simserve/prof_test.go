package simserve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mobilenet/internal/prof"
	"mobilenet/internal/scenario"
	"mobilenet/internal/telemetry"
)

// get performs a GET with optional extra headers and returns the response.
func get(t *testing.T, url string, hdr map[string]string) *http.Response {
	t.Helper()
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestRequestIDEchoAndGeneration(t *testing.T) {
	t.Parallel()
	_, ts := testServer(t, Config{Workers: 1})

	// A sane client id is honored verbatim on the response.
	resp := get(t, ts.URL+"/healthz", map[string]string{"X-Request-Id": "client-abc.123"})
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "client-abc.123" {
		t.Errorf("client id not echoed: got %q", got)
	}

	// No client id: the service generates one, and successive requests get
	// distinct ids.
	seen := map[string]bool{}
	for i := 0; i < 3; i++ {
		resp := get(t, ts.URL+"/healthz", nil)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		id := resp.Header.Get("X-Request-Id")
		if id == "" {
			t.Fatal("no generated request id on response")
		}
		if seen[id] {
			t.Fatalf("generated id %q repeated", id)
		}
		seen[id] = true
	}

	// Unsafe client ids (overlong, or carrying non-printable bytes that
	// could forge log lines) are replaced, not echoed. net/http's client
	// refuses to even send such headers, so drive the handler directly —
	// a hostile peer is not bound by the standard library's politeness.
	s, _ := testServer(t, Config{Workers: 1})
	for name, bad := range map[string]string{
		"overlong":    strings.Repeat("x", maxRequestIDLen+1),
		"control":     "abc\x01def",
		"non-ascii":   "caf\xc3\xa9",
		"tab-smuggle": "id\tstatus=200",
	} {
		req := httptest.NewRequest("GET", "/healthz", nil)
		req.Header.Set("X-Request-Id", bad)
		rr := httptest.NewRecorder()
		s.ServeHTTP(rr, req)
		got := rr.Header().Get("X-Request-Id")
		if got == bad || got == "" {
			t.Errorf("%s: unsafe id handling: got %q", name, got)
		}
	}
}

// TestJobTraceEndpoint drives GET /v1/jobs/{id}/trace through all three
// outcomes: unknown job (404), unfinished job (409), and a finished job
// whose export is valid Chrome trace-event JSON covering the full request
// lifecycle (submit, per-replicate queue wait and run, assemble).
func TestJobTraceEndpoint(t *testing.T) {
	t.Parallel()
	s, ts := testServer(t, Config{Workers: 2})

	resp := get(t, ts.URL+"/v1/jobs/nope/trace", nil)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job trace status = %d, want 404", resp.StatusCode)
	}

	// An unfinished job refuses to export (the trace is still being
	// written); plant one directly — tests are in-package.
	s.mu.Lock()
	s.jobs["job-hung"] = &job{id: "job-hung", status: StatusRunning, trace: prof.NewTrace()}
	s.mu.Unlock()
	resp = get(t, ts.URL+"/v1/jobs/job-hung/trace", nil)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("running job trace status = %d, want 409", resp.StatusCode)
	}
	if _, _, err := s.JobTrace("job-hung"); err != ErrJobNotDone {
		t.Fatalf("JobTrace on running job: err = %v, want ErrJobNotDone", err)
	}
	s.mu.Lock()
	delete(s.jobs, "job-hung")
	s.mu.Unlock()

	const reps = 2
	spec := scenario.Spec{Engine: scenario.EngineBroadcast, Nodes: 1024, Agents: 16,
		Radius: 1, Seed: 2011, Reps: reps}
	ticket, status := postSpec(t, ts, spec)
	if status != http.StatusAccepted {
		t.Fatalf("submit status = %d", status)
	}
	pollJob(t, ts, ticket.JobID)

	resp = get(t, ts.URL+"/v1/jobs/"+ticket.JobID+"/trace", nil)
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace status = %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("trace content type = %q", ct)
	}
	spans, err := prof.ValidateChromeTrace(body)
	if err != nil {
		t.Fatalf("job trace is not valid Chrome trace-event JSON: %v", err)
	}
	// submit + (queue_wait + run) per replicate + assemble.
	if want := 1 + 2*reps + 1; spans != want {
		t.Errorf("trace has %d spans, want %d", spans, want)
	}
	for _, probe := range []string{`"submit broadcast"`, `"queue_wait"`, `"run broadcast"`, `"assemble"`, `"phase_`} {
		if !strings.Contains(string(body), probe) {
			t.Errorf("trace misses %s:\n%s", probe, body)
		}
	}
}

// TestEnginePhaseHistograms is the telemetry round trip the observability
// surface promises: after a job runs, /metrics exposes
// mobiserved_engine_phase_seconds histograms whose {engine,phase} labels
// ParseHistograms recovers, with one observation per replicate for phases
// the engine exercises. Above the labeller's all-pairs threshold (32
// agents) a broadcast step indexes; at or below it every pair is checked
// with no index lap, so that series never materialises.
func TestEnginePhaseHistograms(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name   string
		agents int
		want   []string
		absent []string
	}{
		{"kernel", 64, []string{"move", "index", "label", "spread"}, nil},
		{"all-pairs", 16, []string{"move", "label", "spread"}, []string{"index"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			s := New(Config{Workers: 2})
			defer s.Shutdown(context.Background())
			const reps = 2
			spec := scenario.Spec{Engine: "broadcast", Nodes: 1024, Agents: tc.agents, Seed: 4, Reps: reps}
			ticket, err := s.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := contextWithTimeout(t)
			defer cancel()
			if _, err := s.Wait(ctx, ticket.JobID); err != nil {
				t.Fatal(err)
			}

			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
			parsed := telemetry.ParseHistograms(rec.Body.String())
			key := func(phase string) string {
				return `mobiserved_engine_phase_seconds{engine="broadcast",phase="` + phase + `"}`
			}
			for _, phase := range tc.want {
				h, ok := parsed[key(phase)]
				if !ok {
					t.Errorf("%s missing from /metrics", key(phase))
					continue
				}
				if h.Count() != reps {
					t.Errorf("%s observations = %d, want one per replicate (%d)", key(phase), h.Count(), reps)
				}
			}
			for _, phase := range tc.absent {
				if _, ok := parsed[key(phase)]; ok {
					t.Errorf("%s present in /metrics for a run that never enters the phase", key(phase))
				}
			}
			// Unexercised (engine, phase) pairs must not leak series: no
			// scenario ran on the other engines.
			if _, ok := parsed[`mobiserved_engine_phase_seconds{engine="predator",phase="move"}`]; ok {
				t.Error("phase histogram materialised for an engine that never ran")
			}
		})
	}
}

// TestJobPhasesStayOutOfPayload pins the determinism contract on the
// service path: the worker profiles every replicate for telemetry, but the
// cached payload stays byte-identical to an unprofiled library run.
func TestJobPhasesStayOutOfPayload(t *testing.T) {
	t.Parallel()
	s := New(Config{Workers: 2})
	defer s.Shutdown(context.Background())
	spec := scenario.Spec{Engine: "broadcast", Nodes: 256, Agents: 8, Seed: 12, Reps: 2}
	ticket, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := contextWithTimeout(t)
	defer cancel()
	payload, err := s.Wait(ctx, ticket.JobID)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(payload), `"phases"`) {
		t.Fatalf("service payload leaked phase timings:\n%s", payload)
	}
	res, err := scenario.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if string(payload) != string(want) {
		t.Fatal("service payload differs from unprofiled library run")
	}
}

func TestStageRecorder(t *testing.T) {
	t.Parallel()
	var nilRec *StageRecorder
	nilRec.Add("execute", time.Second) // must not panic
	if nilRec.Stages() != nil {
		t.Fatal("nil recorder reported stages")
	}
	rec := NewStageRecorder()
	if rec.Stages() != nil {
		t.Fatal("empty recorder must report nil, not an empty map")
	}
	rec.Add("execute", 2*time.Millisecond)
	rec.Add("execute", 3*time.Millisecond)
	rec.Add("queue_wait", time.Millisecond)
	rec.Add("noop", 0)                // zero durations are dropped
	rec.Add("negative", -time.Second) // so are negative ones
	got := rec.Stages()
	if len(got) != 2 || got["execute"] != 5*time.Millisecond || got["queue_wait"] != time.Millisecond {
		t.Fatalf("Stages() = %v", got)
	}
	got["execute"] = 0 // the snapshot is a copy
	if rec.Stages()["execute"] != 5*time.Millisecond {
		t.Fatal("Stages() exposed internal state")
	}

	// Context plumbing: absent recorder yields a nil (safe) recorder.
	if stageRecorderFrom(context.Background()) != nil {
		t.Fatal("empty context produced a recorder")
	}
	ctx := WithStageRecorder(context.Background(), rec)
	if stageRecorderFrom(ctx) != rec {
		t.Fatal("recorder did not round-trip through the context")
	}
}

// TestJobStageBreakdownReachesRecorder checks the slow-log data path: a
// poll that observes a finished job fills the request's stage recorder with
// the job's queue-wait/execute/assemble totals, which is what the daemon
// renders on slow-request warn lines.
func TestJobStageBreakdownReachesRecorder(t *testing.T) {
	t.Parallel()
	s, ts := testServer(t, Config{Workers: 2})
	spec := scenario.Spec{Engine: scenario.EngineBroadcast, Nodes: 1024, Agents: 16, Seed: 8, Reps: 2}
	ticket, status := postSpec(t, ts, spec)
	if status != http.StatusAccepted {
		t.Fatalf("submit status = %d", status)
	}
	pollJob(t, ts, ticket.JobID)

	rec := NewStageRecorder()
	req := httptest.NewRequest("GET", "/v1/jobs/"+ticket.JobID, nil)
	req = req.WithContext(WithStageRecorder(req.Context(), rec))
	rr := httptest.NewRecorder()
	s.ServeHTTP(rr, req)
	if rr.Code != http.StatusOK {
		t.Fatalf("job poll status = %d", rr.Code)
	}
	stages := rec.Stages()
	for _, stage := range []string{stageQueueWait, stageExecute, stageAssemble} {
		if stages[stage] <= 0 {
			t.Errorf("stage %q missing from the done-poll breakdown: %v", stage, stages)
		}
	}
}

// TestSweepPropagatesRequestID checks that every per-point job a sweep
// spawns inherits the sweep submission's request id, so one id follows the
// whole batch through logs and traces.
func TestSweepPropagatesRequestID(t *testing.T) {
	t.Parallel()
	s := New(Config{Workers: 2})
	defer s.Shutdown(context.Background())
	ticket, err := s.SubmitSweepWithRequestID(testSweepSpec(), "sweep-rid-1")
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		v, ok := s.Sweep(ticket.SweepID)
		if !ok {
			t.Fatal("sweep vanished")
		}
		if v.Status == StatusDone || v.Status == StatusFailed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sweep did not finish in time")
		}
		time.Sleep(5 * time.Millisecond)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.jobs) == 0 {
		t.Fatal("sweep ran no jobs")
	}
	for id, j := range s.jobs {
		if j.requestID != "sweep-rid-1" {
			t.Errorf("point job %s carries request id %q, want the sweep's", id, j.requestID)
		}
	}
}
