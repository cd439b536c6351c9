// Package simserve turns the scenario layer into a concurrent simulation
// service: a bounded worker pool executes scenario replicates (each under
// its position-derived seed, so results never depend on scheduling), an
// LRU cache keyed by the scenario's canonical content hash answers repeated
// submissions with byte-identical payloads, and an HTTP JSON API exposes
// submit/poll/fetch plus health and metrics endpoints. cmd/mobiserved wraps
// the package into a daemon.
package simserve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mobilenet/internal/cancel"
	"mobilenet/internal/chaos"
	"mobilenet/internal/obs"
	"mobilenet/internal/prof"
	"mobilenet/internal/scenario"
	"mobilenet/internal/store"
	"mobilenet/internal/telemetry"
	"mobilenet/internal/theory"
)

// Config sizes the service. Zero values select the documented defaults.
type Config struct {
	// Workers is the worker-pool size; 0 selects GOMAXPROCS.
	Workers int
	// QueueDepth bounds the number of replicate tasks waiting for a
	// worker; 0 selects 256. A submission whose replicates do not all fit
	// is rejected with ErrQueueFull rather than partially enqueued.
	QueueDepth int
	// CacheEntries bounds the result cache; 0 selects 256.
	CacheEntries int
	// MaxJobs bounds retained finished-job records; 0 selects 1024. The
	// oldest finished records are dropped first (their results stay
	// fetchable through the cache until evicted there).
	MaxJobs int
	// MaxNodes, MaxAgents and MaxSteps bound the size of a single
	// accepted scenario; specs arrive from untrusted HTTP clients, and an
	// unbounded nodes count is an allocation the size of the grid while
	// an unbounded step cap is unbounded worker CPU. MaxSteps bounds the
	// EFFECTIVE cap: the explicit max_steps when given, otherwise a
	// conservative over-estimate of the engine's theory-derived default
	// (so a huge grid cannot smuggle in an astronomically large default —
	// such specs must state an explicit, in-bounds max_steps). Zero
	// selects 1<<24 nodes (a 4096x4096 grid), 1<<20 agents and
	// math.MaxInt32 steps. Oversized specs are rejected as permanently
	// unservable (HTTP 400), not retry-later.
	MaxNodes  int
	MaxAgents int
	MaxSteps  int
	// MaxSweepPoints bounds the expanded point count of one submitted
	// sweep; 0 selects 1024. Every point additionally passes the
	// single-scenario bounds above.
	MaxSweepPoints int
	// MaxSeriesPoints bounds the recorded points per replicate of an
	// observed scenario; 0 selects 1<<20. It bounds the EXPLICIT budget:
	// the observe block's max_points when set, otherwise the explicit
	// max_steps divided by the cadence — so a client cannot pin
	// gigabyte-sized series by pairing a huge max_steps with a fine
	// cadence. Specs that leave max_steps to the engine's
	// completion-targeted default are admitted without a series check:
	// recording costs a few dozen bytes per simulated step, orders of
	// magnitude below the per-step CPU the server already agreed to
	// spend, and grids large enough to derive a monstrous default cap
	// are forced by MaxSteps admission to state an explicit (and
	// therefore series-checked) max_steps anyway. Oversized specs are
	// rejected as permanently unservable (HTTP 400) with a pointer at
	// max_points.
	MaxSeriesPoints int
	// MaxSweeps bounds retained finished-sweep records; 0 selects 256.
	// Like MaxJobs, the oldest finished records are dropped first.
	MaxSweeps int

	// DefaultDeadline bounds jobs submitted without an explicit deadline;
	// 0 applies no default (jobs run to their step cap unless MaxDeadline
	// is set). A job past its deadline is cancelled mid-replicate within
	// one engine check interval and reports status "cancelled".
	DefaultDeadline time.Duration
	// MaxDeadline caps every job's effective deadline, including jobs
	// that asked for none — a server with MaxDeadline set never runs a
	// job unbounded. 0 applies no cap.
	MaxDeadline time.Duration
	// RateLimit is the per-client token-bucket refill rate in submissions
	// per second, keyed by client id (X-Client-Id header or remote
	// address). 0 disables rate limiting. Over-limit submissions are shed
	// at the HTTP layer with 429 + Retry-After before any spec parsing.
	RateLimit float64
	// RateBurst is the token-bucket capacity; 0 selects one second's
	// worth of RateLimit (minimum 1).
	RateBurst int
	// ClientWeights optionally assigns fair-queue weights by client id: a
	// weight-w client's lane serves w tasks per round-robin visit.
	// Missing clients weigh 1 (plain round robin).
	ClientWeights map[string]int
	// Chaos, when non-nil, arms the fault-injection harness (see
	// internal/chaos): worker panics, engine step stalls, dropped cache
	// writes and dequeue latency fire at the injector's configured rates,
	// and each firing is counted in mobiserved_chaos_injections_total.
	// Nil (production) costs one nil-check per injection point.
	Chaos *chaos.Injector

	// Store, when non-nil, adds a disk-backed content-addressed spill tier
	// under the LRU (see internal/store): evicted-or-never-cached results
	// are read through from disk (and promoted), finished results are
	// written behind, and a daemon restart over the same directory serves
	// previously computed points byte-identical without re-running them.
	// The caller owns opening (store.Open) and therefore the directory and
	// byte-bound policy; the server owns the read-through/write-behind
	// traffic and the store's telemetry exposition. Nil keeps the
	// memory-only pre-store behaviour.
	Store *store.Store

	// Executor, when non-nil, replaces the sweep dispatcher's local
	// execution of distinct points: a coordinator plugs in a
	// fleet-sharding executor (see internal/cluster) here, so sweep points
	// run on workers chosen by rendezvous hashing while single-run
	// submissions still execute locally. Nil (the default, and every
	// worker) executes points on the server's own pool.
	Executor PointExecutor
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 256
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 1024
	}
	if c.MaxNodes <= 0 {
		c.MaxNodes = 1 << 24
	}
	if c.MaxAgents <= 0 {
		c.MaxAgents = 1 << 20
	}
	if c.MaxSteps <= 0 {
		c.MaxSteps = math.MaxInt32
	}
	if c.MaxSweepPoints <= 0 {
		c.MaxSweepPoints = 1024
	}
	if c.MaxSeriesPoints <= 0 {
		c.MaxSeriesPoints = 1 << 20
	}
	if c.MaxSweeps <= 0 {
		c.MaxSweeps = 256
	}
	return c
}

// stepBoundExceeds reports whether the step cap a canonical spec will run
// under — the explicit max_steps when set, otherwise a ceiling over every
// engine's theory-derived default (256x the §4 cover-time bound dominates
// the broadcast, gossip, frog, coverage and predator defaults) — exceeds
// the server's limit. The comparison happens in float space so an
// astronomically large derived cap cannot clamp down onto the limit and
// slip past it.
func stepBoundExceeds(c scenario.Spec, limit int) bool {
	if c.MaxSteps > 0 {
		return c.MaxSteps > limit
	}
	return 256*theory.CoverTimeBound(c.Nodes, c.Agents) > float64(limit)
}

// seriesBoundExceeds reports whether an observed canonical spec's
// explicit budget could record more than limit points per replicate: its
// max_points when set, otherwise the explicit max_steps over the cadence.
// A spec that leaves max_steps to the engine's default passes — see the
// MaxSeriesPoints doc for why the CPU posture already dominates there —
// and the division happens in float space for the same
// no-clamp-past-the-limit reason as stepBoundExceeds.
func seriesBoundExceeds(c scenario.Spec, limit int) bool {
	if c.Observe == nil {
		return false
	}
	if c.Observe.MaxPoints > 0 {
		return c.Observe.MaxPoints > limit
	}
	if c.MaxSteps <= 0 {
		return false
	}
	every := c.Observe.Every
	if every < 1 {
		every = 1
	}
	return float64(c.MaxSteps)/float64(every) > float64(limit)
}

// Job states reported by Ticket.Status and JobView.Status.
const (
	StatusQueued  = "queued"
	StatusRunning = "running"
	StatusDone    = "done"
	StatusFailed  = "failed"
	// StatusCancelled reports a job stopped before completing — deadline
	// expiry or server shutdown — as distinct from an engine failure.
	// Cancelled jobs never cache a payload.
	StatusCancelled = "cancelled"
)

// ErrQueueFull reports that the run queue cannot hold the submission's
// replicates; clients should retry later (HTTP 503).
var ErrQueueFull = errors.New("simserve: run queue full")

// errShutdown reports a submission after Shutdown began.
var errShutdown = errors.New("simserve: server is shutting down")

// job is the internal record of one submitted scenario. All mutable fields
// are guarded by Server.mu; trace carries its own lock.
type job struct {
	id        string
	hash      string
	spec      scenario.Spec // canonical
	requestID string        // id of the request that created the job
	client    string        // fair-queue lane the job's replicates ride
	status    string
	errMsg    string
	reps      []scenario.Rep
	pending   int
	cancelled bool          // at least one replicate stopped on cancellation
	cancelMsg string        // first cancellation cause observed
	payload   []byte        // encoded Result, set when status == done
	done      chan struct{} // closed on done, failed or cancelled

	// ctx is the job's execution context: workers run every replicate
	// under it, the step driver polls it each check interval. cancelCause
	// fires it on deadline expiry (via deadlineTimer), on the first real
	// replicate failure (siblings of a doomed job stop instead of finishing
	// work nobody will assemble), and on shutdown past the drain budget.
	ctx           context.Context
	cancelCause   context.CancelCauseFunc
	deadlineTimer *time.Timer

	// trace spans the job's lifecycle (submit, per-replicate queue wait
	// and execution, assembly) for GET /v1/jobs/{id}/trace.
	trace *prof.Trace
	// waitTotal, execTotal and assembleTotal accumulate the job's own
	// share of the lifecycle stages — queue wait and execution summed
	// over replicates, assembly once — for per-request slow-log
	// breakdowns (see StageRecorder).
	waitTotal     time.Duration
	execTotal     time.Duration
	assembleTotal time.Duration
}

// task is the pool's unit of work: one replicate of one job. The enqueue
// timestamp feeds the queue-wait histogram when a worker picks it up.
type task struct {
	job      *job
	rep      int
	enqueued time.Time
}

// Ticket is the service's answer to a submission.
type Ticket struct {
	// JobID identifies the job to poll; empty when Cached.
	JobID string `json:"job_id,omitempty"`
	// Hash is the scenario's canonical content hash (the result key).
	Hash string `json:"hash"`
	// Status is the job state at submission time; "done" when Cached.
	Status string `json:"status"`
	// Cached reports that the result was served from the cache without
	// running anything.
	Cached bool `json:"cached"`
}

// JobView is the externally visible state of a job.
type JobView struct {
	JobID  string `json:"job_id"`
	Hash   string `json:"hash"`
	Status string `json:"status"`
	// Error holds the failure message when Status is "failed".
	Error string `json:"error,omitempty"`
	// Result holds the encoded scenario result when Status is "done". It
	// is byte-identical to the /v1/results/{hash} payload.
	Result json.RawMessage `json:"result,omitempty"`
}

// Server is the simulation service. Construct with New; it is an
// http.Handler (see routes in newMux) and also usable programmatically via
// Submit/Job/Result/Wait.
type Server struct {
	cfg   Config
	cache *tieredCache

	mu       sync.Mutex
	closed   bool
	jobs     map[string]*job
	inflight map[string]*job // hash -> unfinished job, for coalescing
	finished []string        // finished job ids, oldest first, for eviction
	nextID   uint64

	sweeps         map[string]*sweepJob
	finishedSweeps []string // finished sweep ids, oldest first, for eviction
	nextSweepID    uint64
	sweepWG        sync.WaitGroup // sweep dispatcher goroutines

	queue   *fairQueue
	wg      sync.WaitGroup
	limiter *rateLimiter // nil when rate limiting is off
	chaos   *chaos.Injector

	// slowStepHook, when chaos arms slow-step, rides job contexts into the
	// engines (cancel.WithHook) and stalls at the amortized poll points —
	// fault injection without the engines knowing chaos exists.
	slowStepHook func()

	// Service counters live in the telemetry registry (initMetrics) so the
	// /metrics body is one WritePrometheus call; the fields are the write
	// handles the request paths bump.
	metrics           *telemetry.Registry
	jobsServed        *telemetry.Counter
	jobsFailed        *telemetry.Counter
	cacheHits         *telemetry.Counter
	cacheMisses       *telemetry.Counter
	sweepsServed      *telemetry.Counter
	sweepsFailed      *telemetry.Counter
	sweepPointsCached *telemetry.Counter
	seriesServed      *telemetry.Counter
	panicsRecovered   *telemetry.Counter
	jobsCancelled     *telemetry.Counter
	shed              map[string]*telemetry.Counter              // shed reason -> counter
	stages            map[string]*telemetry.Histogram            // stage name -> latency histogram
	httpHists         map[string]*telemetry.Histogram            // route -> latency histogram
	phaseHists        map[string]map[string]*telemetry.Histogram // engine -> phase -> histogram

	// Request-id generation state: start-time base plus a sequence, so
	// generated ids are process-unique without any global state.
	reqBase int64
	reqSeq  atomic.Uint64

	mux *http.ServeMux
}

// New builds a Server and starts its worker pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		cache:    newTieredCache(cfg.CacheEntries, cfg.Store),
		jobs:     make(map[string]*job),
		inflight: make(map[string]*job),
		sweeps:   make(map[string]*sweepJob),
		queue:    newFairQueue(cfg.QueueDepth, cfg.ClientWeights),
		limiter:  newRateLimiter(cfg.RateLimit, cfg.RateBurst),
		chaos:    cfg.Chaos,
		reqBase:  time.Now().UnixNano(),
	}
	if s.chaos.Active(chaos.SlowStep) {
		s.slowStepHook = func() {
			if s.chaos.Fire(chaos.SlowStep) {
				time.Sleep(s.chaos.Delay(chaos.SlowStep))
			}
		}
	}
	s.initMetrics()
	s.mux = newMux(s)
	for w := 0; w < cfg.Workers; w++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Submit validates and canonicalises the spec, then answers from the cache,
// coalesces onto an identical in-flight job, or enqueues a new job whose
// replicates the pool executes under position-derived seeds.
//
// The whole call is the "admission" stage of the request lifecycle —
// validation, canonicalisation, hashing, bounds checks, cache probes and
// the enqueue itself — and lands in the stage histogram even when the
// submission is rejected, so admission-path regressions are visible.
func (s *Server) Submit(spec scenario.Spec) (Ticket, error) {
	return s.SubmitWithOptions(spec, SubmitOptions{})
}

// SubmitWithRequestID is Submit carrying the originating request id, which
// the created job records and its exported trace annotates — one id
// threads HTTP request -> job -> replicate spans (and, via sweep
// dispatchers, sweep -> point jobs). A submission that coalesces onto an
// in-flight job keeps that job's original id: the job's identity is its
// content hash, and the first requester named it.
func (s *Server) SubmitWithRequestID(spec scenario.Spec, requestID string) (Ticket, error) {
	return s.SubmitWithOptions(spec, SubmitOptions{RequestID: requestID})
}

// SubmitOptions carries a submission's execution envelope — everything
// about HOW to run that is not part of the scenario's identity. None of it
// touches the canonical spec or the content hash.
type SubmitOptions struct {
	// RequestID threads the originating request id into the job record
	// and its trace (see SubmitWithRequestID).
	RequestID string
	// Client keys the fair-queue lane (and, at the HTTP layer, the rate
	// limiter). Empty ids share the anonymous lane.
	Client string
	// Deadline bounds the job's wall-clock; 0 asks for the server's
	// DefaultDeadline. Either way MaxDeadline caps the result.
	Deadline time.Duration
}

// effectiveDeadline resolves a requested deadline against the server's
// default and cap. 0 means unbounded only when the server sets no
// MaxDeadline.
func (s *Server) effectiveDeadline(req time.Duration) time.Duration {
	d := req
	if d <= 0 {
		d = s.cfg.DefaultDeadline
	}
	if max := s.cfg.MaxDeadline; max > 0 && (d <= 0 || d > max) {
		d = max
	}
	return d
}

// SubmitWithOptions is Submit carrying the full execution envelope: the
// originating request id, the client id for fair queuing, and the
// requested deadline.
func (s *Server) SubmitWithOptions(spec scenario.Spec, opts SubmitOptions) (Ticket, error) {
	t0 := time.Now()
	defer s.stages[stageAdmission].Since(t0)
	c, err := spec.Canonical()
	if err != nil {
		return Ticket{}, err
	}
	if err := s.checkBounds(c); err != nil {
		return Ticket{}, err
	}
	hash, err := scenario.HashCanonical(c)
	if err != nil {
		return Ticket{}, err
	}
	if payload, ok := s.cache.Get(hash); ok && payload != nil {
		s.cacheHits.Add(1)
		return Ticket{Hash: hash, Status: StatusDone, Cached: true}, nil
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return Ticket{}, errShutdown
	}
	if j, ok := s.inflight[hash]; ok {
		// Coalesced onto an identical in-flight job: neither a cache hit
		// nor a miss — no new work was created.
		return Ticket{JobID: j.id, Hash: hash, Status: j.status}, nil
	}
	// Re-probe the cache under the lock: an identical job may have
	// finished between the unlocked probe above and acquiring s.mu, and
	// re-running a result that is already cached would waste a full
	// simulation.
	if payload, ok := s.cache.Get(hash); ok && payload != nil {
		s.cacheHits.Add(1)
		return Ticket{Hash: hash, Status: StatusDone, Cached: true}, nil
	}
	if c.Reps > s.cfg.QueueDepth {
		// Structurally unservable at this queue size — not a transient
		// condition, so deliberately NOT ErrQueueFull (no point retrying).
		return Ticket{}, fmt.Errorf("simserve: %d replicates exceed the queue depth %d; lower reps or raise the server's -queue", c.Reps, s.cfg.QueueDepth)
	}
	j := &job{
		hash:      hash,
		spec:      c,
		requestID: opts.RequestID,
		client:    opts.Client,
		status:    StatusQueued,
		reps:      make([]scenario.Rep, c.Reps),
		pending:   c.Reps,
		done:      make(chan struct{}),
		trace:     prof.NewTrace(),
	}
	j.ctx, j.cancelCause = context.WithCancelCause(context.Background())
	if d := s.effectiveDeadline(opts.Deadline); d > 0 {
		// One AfterFunc per job instead of a second derived context: the
		// workers only ever consult j.ctx, and the timer names the
		// deadline in the cancellation cause the client reads back.
		j.deadlineTimer = time.AfterFunc(d, func() {
			j.cancelCause(fmt.Errorf("job deadline (%s) exceeded", d))
		})
	}
	// One timestamp covers the whole fan-out: replicates of one job enter
	// the queue together, and per-task clock reads would only smear the
	// queue-wait histogram by the enqueue loop's own cost. Admission is
	// all-or-nothing against the global depth bound.
	now := time.Now()
	ts := make([]task, c.Reps)
	for rep := 0; rep < c.Reps; rep++ {
		ts[rep] = task{job: j, rep: rep, enqueued: now}
	}
	if !s.queue.tryPush(opts.Client, ts) {
		if j.deadlineTimer != nil {
			j.deadlineTimer.Stop()
		}
		j.cancelCause(nil)
		return Ticket{}, ErrQueueFull
	}
	// Counted only once work is actually created: rejected submissions are
	// neither hits nor misses ("misses" = submissions that had to run).
	s.cacheMisses.Add(1)
	s.nextID++
	j.id = fmt.Sprintf("job-%d", s.nextID)
	j.trace.NameThread(0, "job")
	s.jobs[j.id] = j
	s.inflight[hash] = j
	// The submit span starts at the trace epoch (spans never precede it)
	// and covers the admission work from t0, so the trace timeline opens
	// with how long admission took and who asked.
	args := map[string]string{"hash": hash, "reps": strconv.Itoa(c.Reps)}
	if opts.RequestID != "" {
		args["request_id"] = opts.RequestID
	}
	j.trace.Add("submit "+c.Engine, "job", 0, j.trace.Epoch(), time.Since(t0), args)
	return Ticket{JobID: j.id, Hash: hash, Status: j.status}, nil
}

// checkBounds enforces the server's size limits on one canonical spec.
// Library callers may run any size they like; a service must bound what
// one untrusted submission can allocate or occupy.
func (s *Server) checkBounds(c scenario.Spec) error {
	switch {
	case c.Nodes > s.cfg.MaxNodes:
		return fmt.Errorf("simserve: %d nodes exceed this server's limit of %d", c.Nodes, s.cfg.MaxNodes)
	case c.Agents > s.cfg.MaxAgents:
		return fmt.Errorf("simserve: %d agents exceed this server's limit of %d", c.Agents, s.cfg.MaxAgents)
	case c.Preys > s.cfg.MaxAgents:
		return fmt.Errorf("simserve: %d preys exceed this server's limit of %d", c.Preys, s.cfg.MaxAgents)
	case stepBoundExceeds(c, s.cfg.MaxSteps):
		return fmt.Errorf("simserve: the effective step cap exceeds this server's limit of %d (set an explicit, smaller max_steps)", s.cfg.MaxSteps)
	case seriesBoundExceeds(c, s.cfg.MaxSeriesPoints):
		return fmt.Errorf("simserve: the observed series could exceed this server's limit of %d points per replicate (set observe.max_points or a coarser cadence)", s.cfg.MaxSeriesPoints)
	}
	return nil
}

// worker executes replicate tasks until the queue closes and drains.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		t, ok := s.queue.pop()
		if !ok {
			return
		}
		if s.chaos.Fire(chaos.QueueLatency) {
			time.Sleep(s.chaos.Delay(chaos.QueueLatency))
		}
		wait := time.Since(t.enqueued)
		s.stages[stageQueueWait].Record(wait)
		s.mu.Lock()
		if t.job.status == StatusQueued {
			t.job.status = StatusRunning
		}
		t.job.waitTotal += wait
		s.mu.Unlock()

		seed := scenario.RepSeed(t.job.spec.Seed, t.rep)
		r, ok := scenario.Lookup(t.job.spec.Engine)
		var (
			rep scenario.Rep
			err error
		)
		switch {
		case !ok:
			err = fmt.Errorf("simserve: unknown engine %q", t.job.spec.Engine)
		case t.job.ctx.Err() != nil:
			// The job was cancelled while this replicate waited in the
			// queue — deadline expiry, a sibling's failure, or shutdown
			// escalation. Skip the run entirely: an abandoned job must
			// free its workers, not occupy them for a payload nobody
			// will receive.
			err = fmt.Errorf("%w: %v", scenario.ErrCancelled, context.Cause(t.job.ctx))
		default:
			// The pool is the service's parallelism layer: replicates
			// already fan out across every worker, so each replicate
			// labels components sequentially. This deliberately overrides
			// whatever Parallelism the submitter set (canonicalisation
			// zeroed it anyway — it is execution-only and never part of
			// the job's identity) and keeps a saturated server from
			// stacking labeller goroutines on top of busy workers.
			spec := t.job.spec
			spec.Parallelism = 1
			// The service always profiles: phase breakdowns feed the
			// engine-phase histograms and the job trace. They cost one
			// monotonic clock read per phase boundary, six per broadcast
			// step, or five at k <= 32, where the labeller checks every
			// pair and takes no index lap. That leaves the reads a large
			// share of a small replicate: a fleet-hop point at k = 8 took
			// 174–217 µs profiled against 103–112 µs unprofiled
			// (DESIGN.md §12). Like Parallelism this is execution-only —
			// canonicalisation zeroed it, so it never splits the cache.
			spec.Profile = true
			// The step driver polls this context at its amortized check
			// interval; slow-step chaos rides the same poll points as a
			// context hook, so the engines never import chaos.
			ctx := t.job.ctx
			if s.slowStepHook != nil {
				ctx = cancel.WithHook(ctx, s.slowStepHook)
			}
			// The execute stage times exactly the Runner.RunRep seam — the
			// scenario runner's whole per-replicate simulation — so the
			// histogram hook sits once per replicate, never inside the
			// per-step hot loop.
			t0 := time.Now()
			rep, err = s.runRep(ctx, r, spec, seed, t.rep)
			exec := time.Since(t0)
			s.stages[stageExecute].Record(exec)
			s.mu.Lock()
			t.job.execTotal += exec
			s.mu.Unlock()
			// Replicate spans live on thread rep+1 (thread 0 is the job's
			// own lane): the queue wait, then the run annotated with the
			// per-phase split.
			tid := int64(t.rep) + 1
			t.job.trace.NameThread(tid, "rep "+strconv.Itoa(t.rep))
			t.job.trace.Add("queue_wait", "queue", tid, t.enqueued, wait, nil)
			t.job.trace.Add("run "+spec.Engine, "rep", tid, t0, exec, phaseArgs(rep.Phases))
			// Harvest the phase breakdown into telemetry, then strip it:
			// timings are measurements of this machine, and the assembled
			// payload must stay byte-identical to an unprofiled library
			// run of the same spec for hash-keyed caching to be sound.
			if err == nil && rep.Phases != nil {
				s.recordPhases(spec.Engine, rep.Phases)
				rep.Phases = nil
			}
		}
		s.completeRep(t.job, t.rep, rep, err)
	}
}

// runRep is the pool's panic boundary around one replicate. An engine
// panic — a bug, or injected worker-panic chaos — fails only its own job:
// the recover converts it into an error naming the panic value and the
// replicate index, the counter records it, and the worker survives to
// serve the next task. The boundary sits exactly at the Runner.RunRep
// seam so no job bookkeeping runs inside the recoverable region.
func (s *Server) runRep(ctx context.Context, r scenario.Runner, spec scenario.Spec, seed uint64, rep int) (out scenario.Rep, err error) {
	defer func() {
		if v := recover(); v != nil {
			s.panicsRecovered.Add(1)
			err = fmt.Errorf("simserve: panic in replicate %d: %v", rep, v)
		}
	}()
	if s.chaos.Fire(chaos.WorkerPanic) {
		panic("chaos: injected worker panic")
	}
	return r.RunRep(ctx, spec, seed)
}

// phaseArgs renders a replicate's phase breakdown as trace span arguments
// (milliseconds, matching the trace viewer's display unit).
func phaseArgs(b *prof.Breakdown) map[string]string {
	if b == nil {
		return nil
	}
	args := make(map[string]string, len(b.Seconds))
	for phase, sec := range b.Seconds {
		args["phase_"+phase+"_ms"] = strconv.FormatFloat(sec*1000, 'f', 3, 64)
	}
	return args
}

// completeRep records one replicate outcome and finalises the job when it
// was the last one. Replicate outcomes land at their replicate index, so
// the assembled result is independent of worker scheduling. Cancellations
// are kept apart from real failures: a cancelled replicate marks the job
// cancelled, while a real failure additionally cancels the job's context
// so sibling replicates stop instead of finishing work nobody will
// assemble.
func (s *Server) completeRep(j *job, rep int, out scenario.Rep, err error) {
	s.mu.Lock()
	if err != nil {
		if errors.Is(err, scenario.ErrCancelled) {
			j.cancelled = true
			if j.cancelMsg == "" {
				j.cancelMsg = err.Error()
			}
		} else {
			if j.errMsg == "" {
				j.errMsg = err.Error()
			}
			if j.cancelCause != nil {
				j.cancelCause(fmt.Errorf("sibling replicate failed: %v", err))
			}
		}
	}
	j.reps[rep] = out
	j.pending--
	if j.pending > 0 {
		s.mu.Unlock()
		return
	}
	errMsg := j.errMsg
	cancelled := j.cancelled
	s.mu.Unlock()

	// Last replicate: no other worker touches this job's reps anymore, so
	// assemble and encode outside the lock — a large result (many reps
	// with curves) must not stall every Submit/Job/metrics call while it
	// marshals. Cancelled jobs skip assembly: their reps are partial.
	var payload []byte
	var assembleDur time.Duration
	if errMsg == "" && !cancelled {
		t0 := time.Now()
		res, aerr := scenario.Assemble(j.spec, j.hash, j.reps)
		if aerr == nil {
			payload, aerr = json.Marshal(res)
		}
		assembleDur = time.Since(t0)
		s.stages[stageAssemble].Record(assembleDur)
		j.trace.Add("assemble", "job", 0, t0, assembleDur, nil)
		if aerr != nil {
			errMsg = aerr.Error()
		}
	}

	s.mu.Lock()
	j.errMsg = errMsg
	j.assembleTotal = assembleDur
	switch {
	case errMsg != "":
		// A real failure outranks cancellation: "a replicate failed" is
		// more actionable than "and then its siblings were stopped".
		j.status = StatusFailed
		j.payload = nil
		s.jobsFailed.Add(1)
	case cancelled:
		j.status = StatusCancelled
		j.errMsg = j.cancelMsg
		j.payload = nil
		s.jobsCancelled.Add(1)
	default:
		j.status = StatusDone
		j.payload = payload
		if s.chaos.Fire(chaos.CacheWriteError) {
			// Injected cache-write fault: the job still serves from its
			// own record (j.payload above); only the shared cache misses
			// out, which the next identical submission repairs by
			// re-running. This is the failure mode of a flaky cache
			// backend, and correctness must not depend on the write.
		} else {
			t0 := time.Now()
			s.cache.Put(j.hash, payload)
			s.stages[stageCacheWrite].Since(t0)
		}
		s.jobsServed.Add(1)
	}
	if j.deadlineTimer != nil {
		j.deadlineTimer.Stop()
	}
	if j.cancelCause != nil {
		j.cancelCause(nil)
	}
	delete(s.inflight, j.hash)
	s.finished = append(s.finished, j.id)
	for len(s.finished) > s.cfg.MaxJobs {
		delete(s.jobs, s.finished[0])
		s.finished = s.finished[1:]
	}
	s.mu.Unlock()
	close(j.done)
}

// Job returns the visible state of a job.
func (s *Server) Job(id string) (JobView, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobView{}, false
	}
	v := JobView{JobID: j.id, Hash: j.hash, Status: j.status, Error: j.errMsg}
	if j.status == StatusDone {
		v.Result = j.payload
	}
	return v, true
}

// ErrJobNotDone reports a trace request for a job still queued or running
// (HTTP 409: the trace only settles once the last replicate lands).
var ErrJobNotDone = errors.New("simserve: job has not finished; poll the job until done and retry")

// JobTrace returns a finished job's span trace — submit, per-replicate
// queue wait and execution (annotated with the step-phase split), and
// assembly. ok is false for unknown jobs; ErrJobNotDone is returned while
// the job is still queued or running. Failed jobs still export their
// trace: a trace of where a failure spent its time is exactly what the
// requester wants next.
func (s *Server) JobTrace(id string) (tr *prof.Trace, ok bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, found := s.jobs[id]
	if !found {
		return nil, false, nil
	}
	if j.status != StatusDone && j.status != StatusFailed && j.status != StatusCancelled {
		return nil, true, ErrJobNotDone
	}
	return j.trace, true, nil
}

// jobStages returns a job's accumulated lifecycle-stage durations — queue
// wait and execution summed over replicates, assembly once — for the
// per-request slow-log breakdown.
func (s *Server) jobStages(id string) map[string]time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil
	}
	out := make(map[string]time.Duration, 3)
	if j.waitTotal > 0 {
		out[stageQueueWait] = j.waitTotal
	}
	if j.execTotal > 0 {
		out[stageExecute] = j.execTotal
	}
	if j.assembleTotal > 0 {
		out[stageAssemble] = j.assembleTotal
	}
	return out
}

// Result returns the cached payload for a scenario hash.
func (s *Server) Result(hash string) ([]byte, bool) {
	return s.cache.Get(hash)
}

// PutResult inserts a payload computed elsewhere into the result cache
// under its content hash — the coordinator's persistence seam: sweep-point
// payloads fetched from fleet workers land here, so the coordinator serves
// /v1/results/{hash} for every point it dispatched and its disk store
// accumulates the fleet's work across restarts. The disk commit is
// synchronous (a dropped spill here would cost a network re-fetch, not a
// local re-run) but runs on the caller — a dispatcher goroutine — never
// the worker pool. The caller owns handing in the exact canonical bytes;
// nothing is validated, matching the byte-identity contract everywhere
// else in the cache path.
func (s *Server) PutResult(hash string, payload []byte) {
	s.cache.put(hash, payload)
}

// seriesSuffix namespaces rendered series payloads in the result cache.
// Scenario hashes are fixed-width hex, so the suffix cannot collide with a
// result key.
const seriesSuffix = "#series"

// ErrNoSeries reports a cached result whose scenario observed nothing, so
// there is no series to stream (HTTP 404 with a pointed message).
var ErrNoSeries = errors.New("simserve: the scenario has no observe block, so no series was recorded")

// Series returns the canonical NDJSON rendering (obs.WriteNDJSON) of a
// cached result's aggregated series. Renderings are cached in the same LRU
// under a suffixed key, so repeated fetches are byte-identical without
// re-decoding the result payload; because the rendering is a deterministic
// function of the result — itself a deterministic function of the spec —
// an eviction and re-render also reproduces the exact bytes. It returns
// ok=false when no result is cached for the hash, and ErrNoSeries when the
// result exists but its scenario observed nothing.
func (s *Server) Series(hash string) (payload []byte, ok bool, err error) {
	if b, ok := s.cache.Get(hash + seriesSuffix); ok {
		s.seriesServed.Add(1)
		return b, true, nil
	}
	res, ok := s.cache.Get(hash)
	if !ok {
		return nil, false, nil
	}
	var decoded scenario.Result
	if err := json.Unmarshal(res, &decoded); err != nil {
		return nil, true, fmt.Errorf("simserve: corrupt cached result for %s: %w", hash, err)
	}
	if len(decoded.Series) == 0 {
		return nil, true, ErrNoSeries
	}
	var buf bytes.Buffer
	t0 := time.Now()
	if err := obs.WriteNDJSON(&buf, decoded.Series); err != nil {
		return nil, true, fmt.Errorf("simserve: %w", err)
	}
	b := buf.Bytes()
	s.cache.Put(hash+seriesSuffix, b)
	s.stages[stageSeriesRender].Since(t0)
	s.seriesServed.Add(1)
	return b, true, nil
}

// Wait blocks until the job finishes (or ctx expires) and returns its
// payload. Failed jobs return an error carrying the job's failure message.
func (s *Server) Wait(ctx context.Context, id string) ([]byte, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("simserve: unknown job %q", id)
	}
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-j.done:
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch j.status {
	case StatusDone:
		return j.payload, nil
	case StatusCancelled:
		return nil, fmt.Errorf("simserve: job %s cancelled: %s", j.id, j.errMsg)
	default:
		return nil, fmt.Errorf("simserve: job %s failed: %s", j.id, j.errMsg)
	}
}

// QueueDepth returns the number of replicate tasks waiting for a worker.
func (s *Server) QueueDepth() int {
	return s.queue.len()
}

// shutdownResidual bounds how long Shutdown waits for workers after
// cancelling every in-flight job: the engines' amortized poll notices the
// cancellation within a check interval, so this covers one interval of
// the slowest step plus scheduling noise — not a second drain budget.
const shutdownResidual = 5 * time.Second

// Shutdown stops accepting submissions, drains queued work and waits for
// the pool and any sweep dispatchers to exit. If ctx expires before the
// drain finishes, Shutdown escalates: it cancels every in-flight job's
// context (engines stop mid-replicate at their next poll, jobs finish as
// cancelled) and grants a short residual wait before returning ctx's
// error if workers still have not exited. Sweep dispatchers cannot hang
// the drain: their point submissions fail with errShutdown once the
// server is closed, and points already queued complete because the pool
// drains the queue.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		s.queue.close()
	}
	s.mu.Unlock()
	// Queued spill writes are flushed to disk on the way out — whichever
	// path returns — so a clean restart recovers everything computed.
	defer s.cache.Close()
	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		s.sweepWG.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
	}
	// Drain budget exhausted: abandon graceful completion and cancel
	// everything still running.
	s.mu.Lock()
	for _, j := range s.inflight {
		if j.cancelCause != nil {
			j.cancelCause(errShutdown)
		}
	}
	s.mu.Unlock()
	select {
	case <-drained:
	case <-time.After(shutdownResidual):
	}
	return ctx.Err()
}
