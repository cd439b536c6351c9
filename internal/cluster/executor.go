package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"mobilenet/internal/simserve"
	"mobilenet/internal/sweep"
)

// Config wires an Executor to its fleet and its coordinator.
type Config struct {
	// Workers are the fleet's addresses (host:port). At least one.
	Workers []string
	// HTTPClient overrides the per-round-trip HTTP client. Nil selects one
	// client shared by every worker, with a 10s timeout per round trip and
	// an idle connection per host for each point Concurrency keeps in
	// flight. Tests point it at httptest servers.
	HTTPClient *http.Client

	// Attempts bounds tries per worker before failing over to the next in
	// the point's rendezvous order; 0 selects 4. Backoff between attempts
	// is capped exponential with jitter: RetryBase (0 selects 5ms) doubling
	// to RetryCap (0 selects 200ms) — the service's established retry
	// conventions.
	Attempts  int
	RetryBase time.Duration
	RetryCap  time.Duration

	// DownFor is how long a worker that exhausted its attempts is skipped
	// before being tried again; 0 selects 5s. The health probe loop
	// (ProbeLoop) clears the mark early when the worker answers /healthz.
	DownFor time.Duration

	// Concurrency is the in-flight point bound the executor advertises to
	// the sweep dispatcher; 0 selects 4 x len(Workers) (each worker's own
	// pool is its real limit — the coordinator just keeps them all fed).
	Concurrency int

	// Lookup probes the coordinator's own tiered cache before any network
	// hop; Persist writes a fetched payload back into it (so the
	// coordinator serves /v1/results/{hash} for sweep points, and its disk
	// store accumulates the fleet's work). Either may be nil.
	Lookup  func(hash string) ([]byte, bool)
	Persist func(hash string, payload []byte)

	// OnReroute observes each failover: the worker abandoned after
	// exhausting its attempts. OnDispatch observes each successful remote
	// execution with the worker that served it and the end-to-end dispatch
	// duration. Either may be nil.
	OnReroute  func(worker string)
	OnDispatch func(worker string, d time.Duration)
}

func (c Config) withDefaults() Config {
	if c.Attempts <= 0 {
		c.Attempts = 4
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 5 * time.Millisecond
	}
	if c.RetryCap <= 0 {
		c.RetryCap = 200 * time.Millisecond
	}
	if c.DownFor <= 0 {
		c.DownFor = 5 * time.Second
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 4 * len(c.Workers)
	}
	if c.HTTPClient == nil {
		// Each in-flight point holds one connection through its submit and
		// its long-poll. http.DefaultTransport keeps only two idle per
		// host, so every burst of more points on one worker would dial new
		// connections and close them on return.
		t := http.DefaultTransport.(*http.Transport).Clone()
		t.MaxIdleConnsPerHost = c.Concurrency
		c.HTTPClient = &http.Client{Timeout: roundTripTimeout, Transport: t}
	}
	return c
}

// Executor shards sweep points across the fleet. It implements
// simserve.PointExecutor (and simserve.Concurrency); plug it into
// simserve.Config.Executor on the coordinator.
type Executor struct {
	cfg     Config
	clients []*Client

	mu        sync.Mutex
	downUntil []time.Time // per worker; zero = up
	inflight  map[string]*flight

	rng   *rand.Rand // jitter source, guarded by mu
	now   func() time.Time
	sleep func(time.Duration)
}

// flight is one in-progress distinct point: the first requester executes,
// later requesters (overlapping sweeps) wait and share the outcome, bar a
// cancellation of the first requester's envelope.
type flight struct {
	done    chan struct{}
	payload []byte
	err     error
}

// New validates the config and returns an Executor.
func New(cfg Config) (*Executor, error) {
	if len(cfg.Workers) == 0 {
		return nil, errors.New("cluster: no workers configured")
	}
	cfg = cfg.withDefaults()
	e := &Executor{
		cfg:       cfg,
		clients:   make([]*Client, len(cfg.Workers)),
		downUntil: make([]time.Time, len(cfg.Workers)),
		inflight:  make(map[string]*flight),
		rng:       rand.New(rand.NewSource(time.Now().UnixNano())),
		now:       time.Now,
		sleep:     time.Sleep,
	}
	for i, w := range cfg.Workers {
		e.clients[i] = NewClient(w, cfg.HTTPClient)
	}
	return e, nil
}

// PointConcurrency implements simserve.Concurrency.
func (e *Executor) PointConcurrency() int { return e.cfg.Concurrency }

// ExecutePoint implements simserve.PointExecutor: coordinator cache, then
// in-flight coalescing, then the point's rendezvous-ordered failover chain.
func (e *Executor) ExecutePoint(p sweep.Point, opts simserve.SubmitOptions, progress simserve.PointProgress) ([]byte, bool, error) {
	// The point's budget starts now: every retry and failover spends it,
	// and so does waiting on another sweep's flight.
	hop := Hop{RequestID: opts.RequestID, Client: opts.Client}
	if opts.Deadline > 0 {
		hop.Deadline = time.Now().Add(opts.Deadline)
	}
	return e.execute(p, hop, progress)
}

// execute runs ExecutePoint under the point's resolved envelope.
func (e *Executor) execute(p sweep.Point, hop Hop, progress simserve.PointProgress) ([]byte, bool, error) {
	if e.cfg.Lookup != nil {
		if payload, ok := e.cfg.Lookup(p.Hash); ok {
			return payload, true, nil
		}
	}

	// Coalesce overlapping sweeps' requests for the same distinct point:
	// one network execution, shared by everyone who asked while it ran —
	// its payload and its failures, unless the flight ended on its leader's
	// envelope (errCancelled). That outcome says nothing about the point,
	// so a follower whose own sweep is live runs the point again.
	e.mu.Lock()
	if f, ok := e.inflight[p.Hash]; ok {
		e.mu.Unlock()
		<-f.done
		if f.err == nil {
			return f.payload, true, nil
		}
		if errors.Is(f.err, errCancelled) && (progress.Cancelled == nil || !progress.Cancelled()) {
			return e.execute(p, hop, progress)
		}
		return nil, false, f.err
	}
	f := &flight{done: make(chan struct{})}
	e.inflight[p.Hash] = f
	e.mu.Unlock()

	payload, cached, err := e.dispatch(p, hop, progress)
	f.payload, f.err = payload, err
	e.mu.Lock()
	delete(e.inflight, p.Hash)
	e.mu.Unlock()
	close(f.done)
	if err != nil {
		return nil, false, err
	}
	if e.cfg.Persist != nil {
		e.cfg.Persist(p.Hash, payload)
	}
	return payload, cached, nil
}

// dispatch walks the point's failover chain: its rendezvous-ranked
// workers, each tried Attempts times with jittered capped-exponential
// backoff. A worker that exhausts its attempts is marked down (skipped by
// other points until DownFor elapses or the probe loop clears it) and the
// point re-routes to the next in its chain — the counter hook fires once
// per such failover. Permanent errors (the point itself is bad) surface
// immediately: no other worker would answer differently.
func (e *Executor) dispatch(p sweep.Point, hop Hop, progress simserve.PointProgress) ([]byte, bool, error) {
	started := false
	start := func() {
		if !started {
			started = true
			if progress.Started != nil {
				progress.Started()
			}
		}
	}
	cancelled := progress.Cancelled
	if cancelled == nil {
		cancelled = func() bool { return false }
	}

	order := Rank(e.cfg.Workers, p.Hash)
	attempted := make([]bool, len(e.cfg.Workers))
	var lastErr error
	for round := 0; round < 2; round++ {
		// Round 0 honours down marks; round 1 is desperation — it attempts
		// only the workers round 0 skipped as down, so a point is never
		// failed with workers left unattempted (a mass down-marking must
		// not fail points while the fleet is actually recovering).
		skipped := false
		for _, wi := range order {
			if cancelled() {
				return nil, false, errSweepCancelled
			}
			if round == 0 && e.isDown(wi) {
				skipped = true
				lastErr = fmt.Errorf("cluster: worker %s marked down", e.cfg.Workers[wi])
				continue
			}
			if round == 1 && attempted[wi] {
				continue
			}
			attempted[wi] = true
			t0 := e.now()
			payload, cachedOnWorker, err := e.tryWorker(wi, p, hop, start, cancelled)
			if err == nil {
				if e.cfg.OnDispatch != nil {
					e.cfg.OnDispatch(e.cfg.Workers[wi], e.now().Sub(t0))
				}
				return payload, cachedOnWorker, nil
			}
			if permanent(err) {
				return nil, false, err
			}
			lastErr = err
			e.markDown(wi)
			if e.cfg.OnReroute != nil {
				e.cfg.OnReroute(e.cfg.Workers[wi])
			}
		}
		if !skipped {
			break
		}
	}
	return nil, false, fmt.Errorf("cluster: every worker failed for point %s: %w", p.Hash, lastErr)
}

// tryWorker runs the point on one worker with the bounded-retry backoff.
func (e *Executor) tryWorker(wi int, p sweep.Point, hop Hop, start func(), cancelled func() bool) ([]byte, bool, error) {
	var lastErr error
	for attempt := 0; attempt < e.cfg.Attempts; attempt++ {
		if attempt > 0 {
			e.sleep(e.backoff(attempt))
			if cancelled() {
				return nil, false, errPermanent{errSweepCancelled}
			}
		}
		start()
		payload, cached, err := e.clients[wi].RunPoint(p.Spec, hop, cancelled)
		if err == nil {
			return payload, cached, nil
		}
		if permanent(err) {
			return nil, false, err
		}
		lastErr = err
	}
	return nil, false, lastErr
}

// backoff returns the jittered delay before retry attempt n (n >= 1):
// base·2^(n-1) capped, then d/2 + rand(d) — the service's retry shape.
func (e *Executor) backoff(n int) time.Duration {
	d := e.cfg.RetryBase << (n - 1)
	if d > e.cfg.RetryCap || d <= 0 {
		d = e.cfg.RetryCap
	}
	e.mu.Lock()
	j := time.Duration(e.rng.Int63n(int64(d)))
	e.mu.Unlock()
	return d/2 + j
}

func (e *Executor) isDown(wi int) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.now().Before(e.downUntil[wi])
}

func (e *Executor) markDown(wi int) {
	e.mu.Lock()
	e.downUntil[wi] = e.now().Add(e.cfg.DownFor)
	e.mu.Unlock()
}

func (e *Executor) clearDown(wi int) {
	e.mu.Lock()
	e.downUntil[wi] = time.Time{}
	e.mu.Unlock()
}

// Healthy reports the workers currently not marked down (for logs and the
// coordinator's fleet gauge).
func (e *Executor) Healthy() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := 0
	for _, until := range e.downUntil {
		if !e.now().Before(until) {
			n++
		}
	}
	return n
}

// ProbeLoop polls every worker's /healthz on the interval until stop is
// closed, marking failures down and clearing recovered workers early —
// without it, a down mark only expires by timeout. The coordinator daemon
// runs one; tests and short-lived embedders may skip it.
func (e *Executor) ProbeLoop(stop <-chan struct{}, interval time.Duration) {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			for wi, c := range e.clients {
				if err := c.Healthy(); err != nil {
					e.markDown(wi)
				} else {
					e.clearDown(wi)
				}
			}
		}
	}
}
