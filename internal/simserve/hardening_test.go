package simserve

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"mobilenet/internal/chaos"
	"mobilenet/internal/scenario"
)

// longSpec is a scenario that runs long enough (tens of seconds: 32768
// agents broadcasting at radius 1 across a sparse 2048x2048 grid under a
// 256M step cap) that deadline and shutdown cancellation always catch it
// mid-run — the replicate must outlast every deadline in this file even at
// the incremental labeller's per-step cost, or queue-occupancy assertions
// race against early completion. (The previous 4-agent/256x256 shape
// reached full broadcast in ~30ms once the labeller went incremental and
// made the shed test flaky.)
// Seed varies so concurrent tests never coalesce onto each other's jobs.
func longSpec(seed uint64) scenario.Spec {
	return scenario.Spec{Engine: "broadcast", Nodes: 1 << 22, Agents: 1 << 15,
		Radius: 1, Seed: seed, MaxSteps: 1 << 28}
}

// fastSpec completes in milliseconds.
func fastSpec(seed uint64) scenario.Spec {
	return scenario.Spec{Engine: "broadcast", Nodes: 256, Agents: 8, Seed: seed}
}

func mustParseChaos(t *testing.T, spec string) *chaos.Injector {
	t.Helper()
	inj, err := chaos.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

// TestServerSurvivesEnginePanic is the panic-isolation acceptance
// criterion: an injected worker panic fails ONLY its own job — the worker
// survives, the panic is counted, and the next job completes normally.
func TestServerSurvivesEnginePanic(t *testing.T) {
	t.Parallel()
	s := New(Config{Workers: 2, Chaos: mustParseChaos(t, chaos.WorkerPanic+":1x1")})
	defer s.Shutdown(context.Background())

	ticket, err := s.Submit(fastSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancelCtx := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancelCtx()
	_, err = s.Wait(ctx, ticket.JobID)
	if err == nil || !strings.Contains(err.Error(), "panic in replicate") {
		t.Fatalf("panicked job error = %v, want a panic-naming failure", err)
	}
	if v, _ := s.Job(ticket.JobID); v.Status != StatusFailed {
		t.Fatalf("panicked job status = %s, want failed", v.Status)
	}
	if got := s.panicsRecovered.Load(); got != 1 {
		t.Fatalf("panics_recovered = %d, want 1", got)
	}

	// The pool is intact: the x1 cap spent the injection, so the next job
	// runs clean on the same workers.
	ticket2, err := s.Submit(fastSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(ctx, ticket2.JobID); err != nil {
		t.Fatalf("job after recovered panic failed: %v", err)
	}
}

// TestDeadlineCancelsMidRun is the deadline acceptance criterion: a job
// whose deadline expires mid-replicate stops within one engine check
// interval, reports status "cancelled" with the deadline in the message,
// and caches nothing.
func TestDeadlineCancelsMidRun(t *testing.T) {
	t.Parallel()
	s := New(Config{Workers: 2})
	defer s.Shutdown(context.Background())

	ticket, err := s.SubmitWithOptions(longSpec(3), SubmitOptions{Deadline: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancelCtx := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancelCtx()
	_, err = s.Wait(ctx, ticket.JobID)
	if err == nil || !strings.Contains(err.Error(), "cancelled") {
		t.Fatalf("deadline-expired job error = %v, want a cancellation", err)
	}
	v, ok := s.Job(ticket.JobID)
	if !ok || v.Status != StatusCancelled {
		t.Fatalf("job status = %s, want cancelled", v.Status)
	}
	if !strings.Contains(v.Error, "deadline") {
		t.Fatalf("cancellation message %q does not name the deadline", v.Error)
	}
	if got := s.jobsCancelled.Load(); got != 1 {
		t.Fatalf("jobs_cancelled = %d, want 1", got)
	}
	if _, cached := s.Result(ticket.Hash); cached {
		t.Fatal("cancelled job cached a (partial) payload")
	}
}

// TestDefaultDeadlineApplies: a server with DefaultDeadline bounds jobs
// that asked for nothing.
func TestDefaultDeadlineApplies(t *testing.T) {
	t.Parallel()
	s := New(Config{Workers: 2, DefaultDeadline: 30 * time.Millisecond})
	defer s.Shutdown(context.Background())
	ticket, err := s.Submit(longSpec(4))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancelCtx := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancelCtx()
	if _, err := s.Wait(ctx, ticket.JobID); err == nil {
		t.Fatal("job outlived the server's default deadline")
	}
	if v, _ := s.Job(ticket.JobID); v.Status != StatusCancelled {
		t.Fatalf("job status = %s, want cancelled", v.Status)
	}
}

// TestMaxDeadlineCapsRequests: MaxDeadline caps explicit requests and
// bounds deadline-less jobs.
func TestMaxDeadlineCapsRequests(t *testing.T) {
	t.Parallel()
	s := New(Config{MaxDeadline: 40 * time.Millisecond})
	defer s.Shutdown(context.Background())
	if d := s.effectiveDeadline(0); d != 40*time.Millisecond {
		t.Fatalf("unbounded request resolved to %v, want the cap", d)
	}
	if d := s.effectiveDeadline(time.Hour); d != 40*time.Millisecond {
		t.Fatalf("over-cap request resolved to %v, want the cap", d)
	}
	if d := s.effectiveDeadline(10 * time.Millisecond); d != 10*time.Millisecond {
		t.Fatalf("in-cap request resolved to %v, want it honoured", d)
	}
}

// TestAbandonedClientFreesWorkers is the worker-liveness acceptance
// criterion: when a job's deadline expires, its running replicate stops
// and its queued replicates are fast-skipped without running, so the pool
// promptly serves the next client instead of finishing abandoned work.
func TestAbandonedClientFreesWorkers(t *testing.T) {
	t.Parallel()
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())

	// One worker, three long replicates: the first runs, two wait. The
	// deadline fires mid-first-replicate; the queued two must skip.
	abandoned := longSpec(5)
	abandoned.Reps = 3
	ticket, err := s.SubmitWithOptions(abandoned, SubmitOptions{Deadline: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := s.Submit(fastSpec(6))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancelCtx := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancelCtx()
	t0 := time.Now()
	if _, err := s.Wait(ctx, fast.JobID); err != nil {
		t.Fatalf("job behind an abandoned one failed: %v", err)
	}
	// Generous bound: three full ~seconds-long replicates would blow it,
	// one cancelled replicate plus two skips and a fast job never will.
	if wall := time.Since(t0); wall > 10*time.Second {
		t.Fatalf("abandoned job held the worker for %v", wall)
	}
	if _, err := s.Wait(ctx, ticket.JobID); err == nil {
		t.Fatal("abandoned job reported success")
	}
	if v, _ := s.Job(ticket.JobID); v.Status != StatusCancelled {
		t.Fatalf("abandoned job status = %s, want cancelled", v.Status)
	}
}

// TestSiblingFailureCancelsReplicates: one replicate's real failure
// cancels the job's context so queued siblings skip; the job reports the
// failure, not the cancellations.
func TestSiblingFailureCancelsReplicates(t *testing.T) {
	t.Parallel()
	s := New(Config{Workers: 1, Chaos: mustParseChaos(t, chaos.WorkerPanic+":1x1")})
	defer s.Shutdown(context.Background())
	spec := longSpec(7)
	spec.Reps = 3
	ticket, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancelCtx := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancelCtx()
	t0 := time.Now()
	_, err = s.Wait(ctx, ticket.JobID)
	if err == nil || !strings.Contains(err.Error(), "panic in replicate") {
		t.Fatalf("job error = %v, want the panic failure to win", err)
	}
	if v, _ := s.Job(ticket.JobID); v.Status != StatusFailed {
		t.Fatalf("status = %s, want failed (failure outranks cancellation)", v.Status)
	}
	if wall := time.Since(t0); wall > 10*time.Second {
		t.Fatalf("doomed job still ran its siblings for %v", wall)
	}
}

// TestCacheWriteErrorChaosDegradesGracefully: a dropped cache write must
// not corrupt anything — the job itself still serves its payload, only
// the shared cache misses out, and a resubmission re-runs.
func TestCacheWriteErrorChaosDegradesGracefully(t *testing.T) {
	t.Parallel()
	s := New(Config{Workers: 2, Chaos: mustParseChaos(t, chaos.CacheWriteError+":1")})
	defer s.Shutdown(context.Background())
	ticket, err := s.Submit(fastSpec(8))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancelCtx := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancelCtx()
	payload, err := s.Wait(ctx, ticket.JobID)
	if err != nil || len(payload) == 0 {
		t.Fatalf("job behind a dropped cache write: payload %d bytes, err %v", len(payload), err)
	}
	if _, cached := s.Result(ticket.Hash); cached {
		t.Fatal("payload cached despite the injected write error")
	}
	ticket2, err := s.Submit(fastSpec(8))
	if err != nil {
		t.Fatal(err)
	}
	if ticket2.Cached {
		t.Fatal("resubmission claims a cache hit after the dropped write")
	}
	if payload2, err := s.Wait(ctx, ticket2.JobID); err != nil {
		t.Fatal(err)
	} else if string(payload2) != string(payload) {
		t.Fatal("re-run payload diverged from the first run")
	}
}

// TestShutdownEscalatesPastDrainBudget: an expired drain budget cancels
// in-flight jobs instead of waiting out their replicates; they finish as
// cancelled and Shutdown returns the budget's error.
func TestShutdownEscalatesPastDrainBudget(t *testing.T) {
	t.Parallel()
	s := New(Config{Workers: 1})
	ticket, err := s.Submit(longSpec(9))
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the worker to pick the replicate up so the escalation hits
	// a genuinely running engine.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if v, _ := s.Job(ticket.JobID); v.Status == StatusRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("replicate never started")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancelCtx := context.WithCancel(context.Background())
	cancelCtx() // zero drain budget: escalate immediately
	t0 := time.Now()
	if err := s.Shutdown(ctx); err != context.Canceled {
		t.Fatalf("Shutdown = %v, want context.Canceled", err)
	}
	// The engine notices within one check interval — nowhere near the
	// replicate's natural runtime or the residual bound.
	if wall := time.Since(t0); wall > shutdownResidual {
		t.Fatalf("escalated shutdown took %v", wall)
	}
	if v, _ := s.Job(ticket.JobID); v.Status != StatusCancelled {
		t.Fatalf("in-flight job after escalated shutdown = %s, want cancelled", v.Status)
	}
}

// TestRateLimitSheds429 pins the HTTP shed path: an over-limit client
// gets 429 with a Retry-After before the body is even read, the shed
// counter names the reason, and other clients are unaffected.
func TestRateLimitSheds429(t *testing.T) {
	t.Parallel()
	s, ts := testServer(t, Config{Workers: 2, RateLimit: 0.001, RateBurst: 1})
	if _, code := postSpec(t, ts, fastSpec(10)); code != http.StatusOK && code != http.StatusAccepted {
		t.Fatalf("first submission = %d", code)
	}
	req, _ := http.NewRequest("POST", ts.URL+"/v1/run", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-limit submission = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if got := s.shed[shedRateLimited].Load(); got != 1 {
		t.Fatalf("shed{rate_limited} = %d, want 1", got)
	}
	// A different client id owns a fresh bucket.
	req2, _ := http.NewRequest("POST", ts.URL+"/v1/run", strings.NewReader(`{"engine":"broadcast","nodes":256,"agents":8,"seed":11}`))
	req2.Header.Set(clientIDHeader, "someone-else")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode == http.StatusTooManyRequests {
		t.Fatal("rate limit leaked across client ids")
	}
}

// TestQueueFullSheds503RetryAfter: a full queue answers 503 with a
// Retry-After hint and counts the shed; the sweep dispatcher's internal
// retries never touch that counter (it submits through the library path).
func TestQueueFullSheds503RetryAfter(t *testing.T) {
	t.Parallel()
	s, ts := testServer(t, Config{Workers: 1, QueueDepth: 1})
	// Occupy the worker, then fill the queue's single slot.
	running, err := s.SubmitWithOptions(longSpec(12), SubmitOptions{Deadline: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if v, _ := s.Job(running.JobID); v.Status == StatusRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := s.SubmitWithOptions(longSpec(13), SubmitOptions{Deadline: 2 * time.Second}); err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(longSpec(14))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		v1, _ := s.Job(running.JobID)
		t.Fatalf("submission into a full queue = %d, want 503 (job1 status=%s err=%q)", resp.StatusCode, v1.Status, v1.Error)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", got)
	}
	if got := s.shed[shedQueueFull].Load(); got != 1 {
		t.Fatalf("shed{queue_full} = %d, want 1", got)
	}
}

// TestDeadlineHeaderParsing: the X-Deadline-Ms header threads a deadline
// into the job; malformed values are a 400, not a silent default.
func TestDeadlineHeaderParsing(t *testing.T) {
	t.Parallel()
	s, ts := testServer(t, Config{Workers: 2})
	body, err := json.Marshal(longSpec(15))
	if err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest("POST", ts.URL+"/v1/run", strings.NewReader(string(body)))
	req.Header.Set(deadlineHeader, "30")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var ticket Ticket
	if err := json.NewDecoder(resp.Body).Decode(&ticket); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if v := pollJob(t, ts, ticket.JobID); v.Status != StatusCancelled {
		t.Fatalf("job with a 30ms header deadline = %s, want cancelled", v.Status)
	}
	_ = s

	for _, bad := range []string{"0", "-5", "soon", "1.5"} {
		req, _ := http.NewRequest("POST", ts.URL+"/v1/run", strings.NewReader(string(body)))
		req.Header.Set(deadlineHeader, bad)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("deadline %q accepted with %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestDeadlineHeaderRejectsOverflow: a deadline past the largest
// whole-millisecond time.Duration is a 400 that creates no job or sweep,
// on both submit routes. Converted, the first value would wrap to a
// 448µs deadline and the second to a negative one, which silently
// selects the server's default.
func TestDeadlineHeaderRejectsOverflow(t *testing.T) {
	t.Parallel()
	s, ts := testServer(t, Config{Workers: 1})
	run, err := json.Marshal(fastSpec(16))
	if err != nil {
		t.Fatal(err)
	}
	sweepBody := `{"base":{"engine":"broadcast","nodes":256,"agents":8,"seed":17},"axes":[{"field":"radius","values":[0,1]}]}`
	for _, bad := range []string{"18446744073710", "9223372036855"} {
		for path, body := range map[string]string{"/v1/run": string(run), "/v1/sweeps": sweepBody} {
			req, _ := http.NewRequest("POST", ts.URL+path, strings.NewReader(body))
			req.Header.Set(deadlineHeader, bad)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("%s with deadline %q answered %d, want 400", path, bad, resp.StatusCode)
			}
		}
	}
	if _, ok := s.Job("job-1"); ok {
		t.Fatal("a rejected deadline created a job")
	}
	if _, ok := s.Sweep("sweep-1"); ok {
		t.Fatal("a rejected deadline created a sweep")
	}
}
