package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"mobilenet/internal/chaos"
	"mobilenet/internal/scenario"
	"mobilenet/internal/simserve"
	"mobilenet/internal/sweep"
)

// testWorker boots one in-process mobiserved worker behind an HTTP
// listener and returns its service and address.
func testWorker(t *testing.T, cfg simserve.Config) (*simserve.Server, *httptest.Server) {
	t.Helper()
	s := simserve.New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts
}

// testSweep is the shared fleet workload: 6 distinct broadcast points
// small enough to finish in milliseconds each.
func testSweep() sweep.Spec {
	return sweep.Spec{
		Base: scenario.Spec{Engine: scenario.EngineBroadcast, Nodes: 256, Agents: 8,
			Radius: 1, Seed: 1, Metrics: []string{scenario.MetricCurve}},
		Axes: []sweep.Axis{{Field: "seed", From: i64(1), To: i64(6), Step: i64(1)}},
	}
}

func i64(v int64) *int64 { return &v }

// TestBackoffPolicy pins the retry policy's shape: the delay before retry
// n is jittered over [d/2, 3d/2) around d = 5 ms · 2^(n-1), capped at
// 200 ms.
func TestBackoffPolicy(t *testing.T) {
	t.Parallel()
	for n, d := range map[int]time.Duration{
		1: 5 * time.Millisecond, 2: 10 * time.Millisecond, 3: 20 * time.Millisecond,
		6: 160 * time.Millisecond, 7: 200 * time.Millisecond, 80: 200 * time.Millisecond,
	} {
		for i := 0; i < 200; i++ {
			if got := Backoff(n); got < d/2 || got >= d+d/2 {
				t.Fatalf("Backoff(%d) = %v, want in [%v, %v)", n, got, d/2, d+d/2)
			}
		}
	}
}

// fastRetry stubs the executor's sleep seam: the retry policy's delays,
// five times shorter, so that test fleets fail over in milliseconds.
func fastRetry(d time.Duration) { time.Sleep(d / 5) }

// coordinator builds a coordinator server whose sweeps shard across the
// given worker addresses, wired exactly as cmd/mobiserved wires it:
// executor lookups probe the coordinator's cache, fetched payloads
// persist back into it.
func coordinator(t *testing.T, workers []string, tweak func(*Config)) (*simserve.Server, *Executor) {
	t.Helper()
	var coord *simserve.Server
	ccfg := Config{
		Workers: workers,
		DownFor: 50 * time.Millisecond,
		Lookup:  func(hash string) ([]byte, bool) { return coord.Result(hash) },
		Persist: func(hash string, payload []byte) { coord.PutResult(hash, payload) },
	}
	if tweak != nil {
		tweak(&ccfg)
	}
	exec, err := New(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	exec.sleep = fastRetry
	coord = simserve.New(simserve.Config{Workers: 2, Executor: exec})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		coord.Shutdown(ctx)
	})
	return coord, exec
}

// TestIdleConnectionsCoverConcurrency: with no HTTPClient configured, the
// executor keeps an idle connection for every point it may have in flight
// on a worker, so once the first sweep has opened them, later sweeps
// through the same worker dial nothing new.
func TestIdleConnectionsCoverConcurrency(t *testing.T) {
	t.Parallel()
	// Every job waits 20ms in the worker, so the executor's in-flight
	// points overlap and the first sweep opens all the connections the
	// later ones need.
	slow, err := chaos.Parse(chaos.QueueLatency + ":1:20ms")
	if err != nil {
		t.Fatal(err)
	}
	w := simserve.New(simserve.Config{Workers: 4, Chaos: slow})
	ts := httptest.NewUnstartedServer(w)
	var opened atomic.Int64
	ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			opened.Add(1)
		}
	}
	ts.Start()
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		w.Shutdown(ctx)
	})
	coord, exec := coordinator(t, []string{ts.Listener.Addr().String()}, nil)
	// Each sweep has twice as many points as the executor keeps in flight,
	// on fresh seeds so that every point reaches the worker.
	n := int64(2 * exec.PointConcurrency())
	sp := testSweep()
	var first int64
	for i := int64(0); i < 5; i++ {
		sp.Axes = []sweep.Axis{{Field: "seed", From: i64(n*i + 1), To: i64(n*i + n), Step: i64(1)}}
		waitSweep(t, coord, sp)
		if i == 0 {
			first = opened.Load()
		}
	}
	if got := opened.Load(); got != first {
		t.Fatalf("later sweeps opened %d new connections to the worker (%d after the first sweep), want none", got-first, first)
	}
}

func waitSweep(t *testing.T, s *simserve.Server, sp sweep.Spec) []byte {
	t.Helper()
	ticket, err := s.SubmitSweep(sp)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	result, err := s.WaitSweep(ctx, ticket.SweepID)
	if err != nil {
		t.Fatal(err)
	}
	return result
}

// TestFleetSweepByteIdentical is the acceptance pin: a sweep sharded
// across two workers assembles to the exact bytes a single-process run of
// the same spec produces, and every point payload on the coordinator is
// byte-identical to the single process's.
func TestFleetSweepByteIdentical(t *testing.T) {
	t.Parallel()
	_, w1 := testWorker(t, simserve.Config{Workers: 2})
	_, w2 := testWorker(t, simserve.Config{Workers: 2})
	coord, _ := coordinator(t, []string{w1.URL, w2.URL}, nil)

	fleetResult := waitSweep(t, coord, testSweep())

	solo := simserve.New(simserve.Config{Workers: 2})
	defer solo.Shutdown(context.Background())
	soloResult := waitSweep(t, solo, testSweep())

	if !bytes.Equal(fleetResult, soloResult) {
		t.Fatalf("fleet sweep result differs from single-process run: %d vs %d bytes",
			len(fleetResult), len(soloResult))
	}
	points, err := testSweep().Expand()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		fp, ok := coord.Result(p.Hash)
		if !ok {
			t.Fatalf("point %s not persisted on the coordinator", p.Hash)
		}
		sp, ok := solo.Result(p.Hash)
		if !ok {
			t.Fatalf("point %s missing on the solo server", p.Hash)
		}
		if !bytes.Equal(fp, sp) {
			t.Fatalf("point %s payload differs between fleet and solo", p.Hash)
		}
	}
}

// TestFleetShardsAcrossWorkers pins that both workers actually execute
// points (rendezvous spread) and that together they ran each distinct
// point exactly once (structural dedup).
func TestFleetShardsAcrossWorkers(t *testing.T) {
	t.Parallel()
	s1, w1 := testWorker(t, simserve.Config{Workers: 2})
	s2, w2 := testWorker(t, simserve.Config{Workers: 2})
	coord, _ := coordinator(t, []string{w1.URL, w2.URL}, nil)

	waitSweep(t, coord, testSweep())

	// Each worker's cache holds exactly the points rendezvous sent it —
	// no point on both (dedup is structural), none anywhere else. The
	// expected split is derived from Rank itself: with 6 points and
	// ephemeral test ports the draw occasionally sends all 6 to one
	// worker, which is correct placement, not a sharding failure (the
	// statistical spread is pinned deterministically by TestRankSpreads).
	points, _ := testSweep().Expand()
	for _, p := range points {
		_, ok1 := s1.Result(p.Hash)
		_, ok2 := s2.Result(p.Hash)
		if ok1 == ok2 {
			t.Errorf("point %s on both or neither worker (w1=%v w2=%v): dedup is not structural", p.Hash, ok1, ok2)
		}
		want := Rank([]string{w1.URL, w2.URL}, p.Hash)[0]
		if (want == 0) != ok1 {
			t.Errorf("point %s landed off its rendezvous home", p.Hash)
		}
	}
}

// TestWorkerKillReroute is the failover pin: with one of two workers dead,
// the sweep still completes — the dead worker's points re-route to the
// survivor — and the reroute hook counts at least one failover.
func TestWorkerKillReroute(t *testing.T) {
	t.Parallel()
	_, w1 := testWorker(t, simserve.Config{Workers: 2})
	_, w2 := testWorker(t, simserve.Config{Workers: 2})
	var rerouted atomic.Uint64
	coord, _ := coordinator(t, []string{w1.URL, w2.URL}, func(c *Config) {
		c.OnReroute = func(string) { rerouted.Add(1) }
	})

	// Kill whichever worker rendezvous made home to at least one point
	// (with ephemeral test ports the draw occasionally homes every point
	// on one worker — killing the idle one would exercise nothing).
	points, _ := testSweep().Expand()
	homes := make([]int, 2)
	for _, p := range points {
		homes[Rank([]string{w1.URL, w2.URL}, p.Hash)[0]]++
	}
	if homes[1] > 0 {
		w2.Close()
	} else {
		w1.Close()
	}

	result := waitSweep(t, coord, testSweep())
	if len(result) == 0 {
		t.Fatal("empty sweep result")
	}
	if rerouted.Load() == 0 {
		t.Fatal("no reroutes counted though a worker was dead")
	}
	// Every point must be served despite the death.
	for _, p := range points {
		if _, ok := coord.Result(p.Hash); !ok {
			t.Fatalf("point %s missing after failover", p.Hash)
		}
	}
}

// TestOverlappingSweepsConverge pins fleet-wide dedup across clients: two
// concurrent submissions of the same sweep converge on one execution per
// distinct point (the workers' jobs-served counters sum to the distinct
// point count, not twice it).
func TestOverlappingSweepsConverge(t *testing.T) {
	t.Parallel()
	s1, w1 := testWorker(t, simserve.Config{Workers: 2})
	s2, w2 := testWorker(t, simserve.Config{Workers: 2})
	coord, _ := coordinator(t, []string{w1.URL, w2.URL}, nil)

	t1, err := coord.SubmitSweep(testSweep())
	if err != nil {
		t.Fatal(err)
	}
	t2, err := coord.SubmitSweep(testSweep())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	r1, err := coord.WaitSweep(ctx, t1.SweepID)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := coord.WaitSweep(ctx, t2.SweepID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r1, r2) {
		t.Fatal("overlapping sweeps assembled different results")
	}
	points, _ := testSweep().Expand()
	if ran := countJobs(t, s1) + countJobs(t, s2); ran != len(points) {
		t.Fatalf("fleet executed %d jobs for %d distinct points; overlap was not deduplicated", ran, len(points))
	}
}

// countJobs reads a worker's jobs-served counter off its own metrics
// exposition — the same surface the load generator differs.
func countJobs(t *testing.T, s *simserve.Server) int {
	t.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	var n int
	for _, line := range bytes.Split([]byte(body), []byte("\n")) {
		if bytes.HasPrefix(line, []byte("mobiserved_jobs_served_total ")) {
			if _, err := fmt.Sscan(string(line[len("mobiserved_jobs_served_total "):]), &n); err != nil {
				t.Fatal(err)
			}
		}
	}
	return n
}

// TestNoWorkers pins the constructor's validation.
func TestNoWorkers(t *testing.T) {
	t.Parallel()
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted an empty worker set")
	}
}

// TestCoalescedFollowerOwnsItsEnvelope: two sweeps ask for one point, and
// the second coalesces onto the first's flight. When the flight ends on the
// leader's envelope — its sweep cancelled mid-point, or its deadline
// cutting the worker's job short — the follower, whose own sweep is live,
// runs the point again and gets the payload. A genuine failure of the
// point (here a 4xx) is still shared without a second submit.
func TestCoalescedFollowerOwnsItsEnvelope(t *testing.T) {
	t.Parallel()
	// Every job waits 300ms in the worker, so the follower joins a flight
	// that is still running when the leader's envelope ends it.
	slow, err := chaos.Parse(chaos.QueueLatency + ":1:300ms")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		leader    simserve.SubmitOptions
		cancel    bool // cancel the leader's sweep once the follower waits
		reject    bool // the worker rejects the point
		wantShare bool // the follower shares the leader's failure
	}{
		{name: "leader sweep cancelled", cancel: true},
		{name: "leader deadline", leader: simserve.SubmitOptions{Deadline: 50 * time.Millisecond}},
		{name: "point rejected", reject: true, wantShare: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			w, ts, log := recordedWorkerWith(t, simserve.Config{Workers: 2, Chaos: slow}, func(_ *simserve.Server, w http.ResponseWriter, r *http.Request) bool {
				if !tc.reject || r.Method != http.MethodPost {
					return false
				}
				time.Sleep(300 * time.Millisecond)
				w.WriteHeader(http.StatusBadRequest)
				return true
			})
			e := executor(t, ts.URL)
			p := firstPoint(t)

			var leaderCancelled atomic.Bool
			leaderErr := make(chan error, 1)
			go func() {
				_, _, err := e.ExecutePoint(p, tc.leader, simserve.PointProgress{Cancelled: leaderCancelled.Load})
				leaderErr <- err
			}()
			for {
				e.mu.Lock()
				_, led := e.inflight[p.Hash]
				e.mu.Unlock()
				if led {
					break
				}
				time.Sleep(time.Millisecond)
			}
			type outcome struct {
				payload []byte
				err     error
			}
			follower := make(chan outcome, 1)
			go func() {
				payload, _, err := e.ExecutePoint(p, simserve.SubmitOptions{}, simserve.PointProgress{Cancelled: func() bool { return false }})
				follower <- outcome{payload, err}
			}()
			time.Sleep(50 * time.Millisecond) // the follower is waiting on the flight
			if tc.cancel {
				leaderCancelled.Store(true)
			}

			var lerr error
			select {
			case lerr = <-leaderErr:
			case <-time.After(10 * time.Second):
				t.Fatal("leader still in flight after 10s")
			}
			if lerr == nil {
				t.Fatal("leader succeeded; the test needs its flight to fail")
			}
			if cancelClass := errors.Is(lerr, errCancelled); cancelClass == tc.wantShare {
				t.Fatalf("leader error %q: errCancelled class %v, want %v", lerr, cancelClass, !tc.wantShare)
			}
			var o outcome
			select {
			case o = <-follower:
			case <-time.After(10 * time.Second):
				t.Fatal("follower still in flight after 10s")
			}
			if tc.wantShare {
				if o.err == nil || o.err.Error() != lerr.Error() {
					t.Fatalf("follower got %v, want the leader's %v", o.err, lerr)
				}
				if runs := log.count("POST", "/v1/run"); runs != 1 {
					t.Fatalf("%d submits for a rejected point, want the leader's 1", runs)
				}
				return
			}
			if o.err != nil {
				t.Fatalf("follower failed with the leader's envelope: %v", o.err)
			}
			if want, _ := w.Result(p.Hash); !bytes.Equal(o.payload, want) {
				t.Fatal("follower payload differs from the worker's cached bytes")
			}
		})
	}
}
