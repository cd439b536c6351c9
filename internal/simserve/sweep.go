package simserve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"mobilenet/internal/scenario"
	"mobilenet/internal/sweep"
)

// queueFullRetry is how long a sweep dispatcher backs off when the run
// queue cannot hold a point's replicates. Sweeps are the service's own
// batch clients, so they absorb backpressure by waiting instead of
// surfacing 503s to the submitter.
const queueFullRetry = 2 * time.Millisecond

// sweepJob is the internal record of one submitted sweep. All mutable
// fields are guarded by Server.mu.
type sweepJob struct {
	id        string
	hash      string
	spec      sweep.Spec
	points    []sweep.Point
	requestID string        // id of the request that created the sweep
	client    string        // fair-queue lane the sweep's point jobs ride
	deadline  time.Duration // per-point deadline forwarded to each job

	status      string
	pointStatus []string // per point: queued/running/done/failed
	pointCached []bool   // per point: answered from the result cache
	pointErr    []error  // per point: failure, nil otherwise
	payloads    [][]byte // per point: encoded scenario.Result
	done        int      // finished points (done or failed)
	cached      int      // points answered from the cache
	failed      bool     // cancellation flag for the dispatcher

	errMsg string // sweep-level error: the lowest-indexed point failure
	result []byte // encoded sweep.Result, set when status == done
	doneCh chan struct{}
}

// SweepTicket is the service's answer to a sweep submission.
type SweepTicket struct {
	// SweepID identifies the sweep to poll.
	SweepID string `json:"sweep_id"`
	// Hash is the sweep's canonical content hash (order-independent over
	// the expanded point set).
	Hash string `json:"hash"`
	// Status is the sweep state at submission time.
	Status string `json:"status"`
	// Points is the expanded point count.
	Points int `json:"points"`
}

// SweepPointView is the externally visible state of one sweep point.
type SweepPointView struct {
	// Index is the point's position in expansion order.
	Index int `json:"index"`
	// Hash is the point's scenario content hash; its result is fetchable
	// at /v1/results/{hash} once done.
	Hash string `json:"hash"`
	// Status is queued, running, done or failed.
	Status string `json:"status"`
	// Cached reports that the point was answered from the result cache
	// without running anything.
	Cached bool `json:"cached"`
	// Error holds the point's failure message when Status is failed.
	Error string `json:"error,omitempty"`
}

// SweepView is the externally visible state of a sweep: per-point
// progress while running, and the full sweep result once done.
type SweepView struct {
	SweepID string `json:"sweep_id"`
	Hash    string `json:"hash"`
	Status  string `json:"status"`
	// Error holds the lowest-indexed point failure when Status is failed.
	Error string `json:"error,omitempty"`
	// PointsTotal, PointsDone and PointsCached summarise progress.
	PointsTotal  int `json:"points_total"`
	PointsDone   int `json:"points_done"`
	PointsCached int `json:"points_cached"`
	// Points holds the per-point states in expansion order.
	Points []SweepPointView `json:"points"`
	// Result holds the encoded sweep result when Status is done. Each
	// embedded per-point result is byte-identical to the corresponding
	// /v1/results/{hash} payload (and to a library run of the point).
	Result json.RawMessage `json:"result,omitempty"`
}

// SubmitSweep validates and expands the sweep, bounds every point, and
// starts a dispatcher that feeds the points through the ordinary submit
// path — so each point is answered from the hash-keyed result cache,
// coalesced onto an identical in-flight job, or executed on the worker
// pool, exactly as if it had been POSTed individually. Repeated or
// overlapping sweeps therefore deduplicate point by point.
func (s *Server) SubmitSweep(sp sweep.Spec) (SweepTicket, error) {
	return s.SubmitSweepWithRequestID(sp, "")
}

// SubmitSweepWithRequestID is SubmitSweep carrying the originating request
// id; the dispatcher propagates it into every per-point job submission, so
// the point jobs' traces all name the sweep's request.
func (s *Server) SubmitSweepWithRequestID(sp sweep.Spec, requestID string) (SweepTicket, error) {
	return s.SubmitSweepWithOptions(sp, SubmitOptions{RequestID: requestID})
}

// SubmitSweepWithOptions is SubmitSweep carrying the full execution
// envelope. The client id keys every point job into the sweep owner's
// fair-queue lane (a big sweep competes as one client, not as hundreds of
// anonymous jobs), and the deadline applies per point job — bounding each
// point's wall-clock, not the whole sweep's.
func (s *Server) SubmitSweepWithOptions(sp sweep.Spec, opts SubmitOptions) (SweepTicket, error) {
	// Expansion, bounds checks and hashing are the sweep_expand stage of
	// the lifecycle (the dispatcher's dedup pass lands there too).
	t0 := time.Now()
	points, err := sp.Expand()
	if err != nil {
		return SweepTicket{}, err
	}
	if len(points) > s.cfg.MaxSweepPoints {
		return SweepTicket{}, fmt.Errorf("simserve: sweep expands to %d points, exceeding this server's limit of %d", len(points), s.cfg.MaxSweepPoints)
	}
	for _, p := range points {
		if err := s.checkBounds(p.Spec); err != nil {
			return SweepTicket{}, fmt.Errorf("simserve: sweep point %d: %w", p.Index, err)
		}
	}
	hash := sweep.HashPoints(points)
	s.stages[stageSweepExpand].Since(t0)

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return SweepTicket{}, errShutdown
	}
	s.nextSweepID++
	j := &sweepJob{
		id:          fmt.Sprintf("sweep-%d", s.nextSweepID),
		hash:        hash,
		spec:        sp,
		points:      points,
		requestID:   opts.RequestID,
		client:      opts.Client,
		deadline:    opts.Deadline,
		status:      StatusQueued,
		pointStatus: make([]string, len(points)),
		pointCached: make([]bool, len(points)),
		pointErr:    make([]error, len(points)),
		payloads:    make([][]byte, len(points)),
		doneCh:      make(chan struct{}),
	}
	for i := range j.pointStatus {
		j.pointStatus[i] = StatusQueued
	}
	s.sweeps[j.id] = j
	s.sweepWG.Add(1)
	s.mu.Unlock()

	go s.runSweep(j)
	return SweepTicket{SweepID: j.id, Hash: hash, Status: StatusQueued, Points: len(points)}, nil
}

// runSweep dispatches a sweep's distinct points in index order, at most
// Workers in flight, and finalises the job. Error semantics mirror the
// sweep library's runPoints (and the experiment harness's runReps): the
// first failure cancels the dispatch of further points, and the
// lowest-indexed failed point's error becomes the sweep's error.
func (s *Server) runSweep(j *sweepJob) {
	defer s.sweepWG.Done()

	// Duplicate points within one sweep share a single submission; the
	// grouping is the library executor's, so both paths dedupe alike.
	t0 := time.Now()
	uniq := sweep.Distinct(j.points)
	s.stages[stageSweepExpand].Since(t0)

	s.mu.Lock()
	j.status = StatusRunning
	s.mu.Unlock()

	cancelled := func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return j.failed
	}
	recordErr := func(u sweep.DistinctPoint, err error) {
		s.mu.Lock()
		defer s.mu.Unlock()
		for _, idx := range u.Indices {
			j.pointStatus[idx] = StatusFailed
			j.pointErr[idx] = err
			j.done++
		}
		j.failed = true
	}
	recordRunning := func(u sweep.DistinctPoint) {
		s.mu.Lock()
		defer s.mu.Unlock()
		for _, idx := range u.Indices {
			j.pointStatus[idx] = StatusRunning
		}
	}
	recordPayload := func(u sweep.DistinctPoint, payload []byte, cached bool) {
		s.mu.Lock()
		defer s.mu.Unlock()
		for _, idx := range u.Indices {
			j.pointStatus[idx] = StatusDone
			j.pointCached[idx] = cached
			j.payloads[idx] = payload
			j.done++
		}
		if cached {
			j.cached += len(u.Indices)
			s.sweepPointsCached.Add(uint64(len(u.Indices)))
		}
	}

	// Execution happens below the PointExecutor seam: locally on this
	// server's pool by default, or sharded across a fleet when a
	// coordinator configured a remote executor. The dispatcher owns the
	// in-flight bound and the progress/error accounting either way.
	exec := s.executor()
	sem := make(chan struct{}, s.executorConcurrency(exec))
	// The deadline is resolved here, once, so this server's default and
	// cap bound every point wherever it runs; a local submission resolves
	// it again, which changes nothing.
	opts := SubmitOptions{RequestID: j.requestID, Client: j.client, Deadline: s.effectiveDeadline(j.deadline)}
	var wg sync.WaitGroup
	for _, u := range uniq {
		if cancelled() {
			break
		}
		sem <- struct{}{}
		wg.Add(1)
		go func(u sweep.DistinctPoint) {
			defer wg.Done()
			defer func() { <-sem }()
			payload, cached, err := exec.ExecutePoint(u.Point, opts, PointProgress{
				Cancelled: cancelled,
				Started:   func() { recordRunning(u) },
			})
			if err != nil {
				recordErr(u, fmt.Errorf("simserve: sweep point %d: %w", u.Index, err))
				return
			}
			recordPayload(u, payload, cached)
		}(u)
	}
	wg.Wait()
	s.finishSweep(j)
}

// submitPoint submits one point spec under the sweep's execution
// envelope, absorbing transient queue-full rejections by backing off
// until the queue has room, the sweep is cancelled, or the server shuts
// down. These retries are internal flow control and never touch the shed
// counters — the sweep was already admitted at the HTTP layer.
func (s *Server) submitPoint(spec scenario.Spec, opts SubmitOptions, cancelled func() bool) (Ticket, error) {
	for {
		t, err := s.SubmitWithOptions(spec, opts)
		if err == nil {
			return t, nil
		}
		if !errors.Is(err, ErrQueueFull) || cancelled() {
			return Ticket{}, err
		}
		time.Sleep(queueFullRetry)
	}
}

// finishSweep assembles the sweep result (or its failure) and finalises
// the job record.
func (s *Server) finishSweep(j *sweepJob) {
	s.mu.Lock()
	var errMsg string
	for _, e := range j.pointErr { // point order: first hit is the lowest index
		if e != nil {
			errMsg = e.Error()
			break
		}
	}
	if errMsg == "" && j.done < len(j.points) {
		// Defensive: cannot happen — dispatch only stops early on failure.
		errMsg = fmt.Sprintf("simserve: sweep finished with %d of %d points", j.done, len(j.points))
	}
	payloads := j.payloads
	s.mu.Unlock()

	// Decode, assemble and encode outside the lock, mirroring completeRep:
	// a large sweep result must not stall the whole service while it
	// marshals.
	var result []byte
	if errMsg == "" {
		results := make([]*scenario.Result, len(payloads))
		for i, p := range payloads {
			var r scenario.Result
			if err := json.Unmarshal(p, &r); err != nil {
				errMsg = fmt.Sprintf("simserve: corrupt payload for point %d: %v", i, err)
				break
			}
			results[i] = &r
		}
		if errMsg == "" {
			assembled, err := sweep.Assemble(j.spec, j.points, results)
			if err == nil {
				result, err = json.Marshal(assembled)
			}
			if err != nil {
				errMsg = err.Error()
			}
		}
	}

	s.mu.Lock()
	j.errMsg = errMsg
	// The per-point payloads are consumed: the view serves j.result (done)
	// or j.pointErr (failed), and the same bytes stay fetchable through
	// the result cache — keeping them here would double the memory every
	// retained sweep record pins.
	j.payloads = nil
	if errMsg == "" {
		j.status = StatusDone
		j.result = result
		s.sweepsServed.Add(1)
	} else {
		j.status = StatusFailed
		j.result = nil
		s.sweepsFailed.Add(1)
	}
	s.finishedSweeps = append(s.finishedSweeps, j.id)
	for len(s.finishedSweeps) > s.cfg.MaxSweeps {
		delete(s.sweeps, s.finishedSweeps[0])
		s.finishedSweeps = s.finishedSweeps[1:]
	}
	s.mu.Unlock()
	close(j.doneCh)
}

// Sweep returns the visible state of a sweep.
func (s *Server) Sweep(id string) (SweepView, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.sweeps[id]
	if !ok {
		return SweepView{}, false
	}
	v := SweepView{
		SweepID:      j.id,
		Hash:         j.hash,
		Status:       j.status,
		Error:        j.errMsg,
		PointsTotal:  len(j.points),
		PointsDone:   j.done,
		PointsCached: j.cached,
		Points:       make([]SweepPointView, len(j.points)),
	}
	for i, p := range j.points {
		pv := SweepPointView{Index: p.Index, Hash: p.Hash, Status: j.pointStatus[i], Cached: j.pointCached[i]}
		if j.pointErr[i] != nil {
			pv.Error = j.pointErr[i].Error()
		}
		v.Points[i] = pv
	}
	if j.status == StatusDone {
		v.Result = j.result
	}
	return v, true
}

// WaitSweep blocks until the sweep finishes (or ctx expires) and returns
// its encoded result. Failed sweeps return an error carrying the
// lowest-indexed point failure.
func (s *Server) WaitSweep(ctx context.Context, id string) ([]byte, error) {
	s.mu.Lock()
	j, ok := s.sweeps[id]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("simserve: unknown sweep %q", id)
	}
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-j.doneCh:
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.status != StatusDone {
		return nil, fmt.Errorf("simserve: sweep %s failed: %s", j.id, j.errMsg)
	}
	return j.result, nil
}
