package simserve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"time"

	"mobilenet/internal/scenario"
	"mobilenet/internal/sweep"
)

// maxSpecBytes bounds a submitted scenario body; specs are small, so one
// megabyte is already generous.
const maxSpecBytes = 1 << 20

// ServeHTTP exposes the service API:
//
//	POST /v1/run                   submit a scenario spec (JSON body)
//	GET  /v1/jobs/{id}             poll a job (?wait_ms=N long-polls up to N ms, at most 1 s)
//	GET  /v1/jobs/{id}/trace       export a finished job's trace (Chrome trace-event JSON)
//	GET  /v1/results/{hash}        fetch a cached result payload
//	GET  /v1/results/{hash}/series stream the result's observed series (NDJSON)
//	POST /v1/sweeps                submit a sweep spec (JSON body)
//	GET  /v1/sweeps/{id}           poll a sweep (per-point progress, then result)
//	GET  /healthz                  liveness probe
//	GET  /metrics                  Prometheus-style service metrics
//
// Every response carries an X-Request-Id header: the client's own id when
// the request supplied one, a generated process-unique id otherwise. The
// id is threaded through the work a request creates — the jobs a run or a
// sweep's points spawn record it, and their exported traces annotate their
// submit spans with it — so one id correlates a client log line, the
// daemon's request log, and a trace.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := s.requestID(r)
	w.Header().Set(requestIDHeader, id)
	s.mux.ServeHTTP(w, r.WithContext(withRequestID(r.Context(), id)))
}

func newMux(s *Server) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/run", s.timed("run", s.handleRun))
	mux.HandleFunc("GET /v1/jobs/{id}", s.timed("jobs", s.handleJob))
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.timed("trace", s.handleTrace))
	mux.HandleFunc("GET /v1/results/{hash}", s.timed("results", s.handleResult))
	mux.HandleFunc("GET /v1/results/{hash}/series", s.timed("series", s.handleSeries))
	mux.HandleFunc("POST /v1/sweeps", s.timed("sweep_submit", s.handleSweepSubmit))
	mux.HandleFunc("GET /v1/sweeps/{id}", s.timed("sweeps", s.handleSweep))
	mux.HandleFunc("GET /healthz", s.timed("healthz", s.handleHealthz))
	mux.HandleFunc("GET /metrics", s.timed("metrics", s.handleMetrics))
	return mux
}

// timed wraps a handler with the route's HTTP latency histogram. The
// route label is a registration-time constant — never a raw request path
// — so the label set stays bounded no matter what clients send.
func (s *Server) timed(route string, h http.HandlerFunc) http.HandlerFunc {
	hist := s.httpHists[route]
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h(w, r)
		hist.Since(t0)
	}
}

// httpError writes a JSON error body with the given status.
func httpError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// checkRate applies the per-client rate limit, writing the 429 (with a
// Retry-After telling the client when a token accrues) and bumping the
// shed counter itself. Returns false when the request was shed. Sits
// before any body read or spec parsing: shedding exists to protect the
// server, so a shed request must cost as close to nothing as possible.
func (s *Server) checkRate(w http.ResponseWriter, client string) bool {
	ok, wait := s.limiter.allow(client, time.Now())
	if ok {
		return true
	}
	s.shed[shedRateLimited].Add(1)
	w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(wait.Seconds()))))
	httpError(w, http.StatusTooManyRequests,
		fmt.Sprintf("simserve: client %q is over the submission rate limit; retry after %v", client, wait.Round(time.Millisecond)))
	return false
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	client := clientID(r)
	if !s.checkRate(w, client) {
		return
	}
	deadline, err := deadlineFrom(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxSpecBytes))
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	spec, err := scenario.Parse(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	t0 := time.Now()
	ticket, err := s.SubmitWithOptions(spec, SubmitOptions{
		RequestID: requestIDFrom(r.Context()),
		Client:    client,
		Deadline:  deadline,
	})
	stageRecorderFrom(r.Context()).Add(stageAdmission, time.Since(t0))
	switch {
	case errors.Is(err, ErrQueueFull):
		// Shed: the queue cannot hold the submission right now. One
		// second is an honest hint — workers drain replicates in well
		// under that except when the server is truly drowning.
		s.shed[shedQueueFull].Add(1)
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable, err.Error())
		return
	case errors.Is(err, errShutdown):
		httpError(w, http.StatusServiceUnavailable, err.Error())
		return
	case err != nil:
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	if ticket.Cached {
		writeJSON(w, http.StatusOK, ticket)
		return
	}
	writeJSON(w, http.StatusAccepted, ticket)
}

// handleSweepSubmit accepts a sweep spec. Unlike single runs, a sweep is
// always accepted asynchronously (202): even a fully cached sweep is
// assembled by the dispatcher, and the first poll observes it done with
// every point cached.
func (s *Server) handleSweepSubmit(w http.ResponseWriter, r *http.Request) {
	client := clientID(r)
	if !s.checkRate(w, client) {
		return
	}
	deadline, err := deadlineFrom(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxSpecBytes))
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	sp, err := sweep.Parse(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	ticket, err := s.SubmitSweepWithOptions(sp, SubmitOptions{
		RequestID: requestIDFrom(r.Context()),
		Client:    client,
		Deadline:  deadline,
	})
	switch {
	case errors.Is(err, errShutdown):
		httpError(w, http.StatusServiceUnavailable, err.Error())
		return
	case err != nil:
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	writeJSON(w, http.StatusAccepted, ticket)
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	v, ok := s.Sweep(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown sweep")
		return
	}
	writeJSON(w, http.StatusOK, v)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	wait, err := waitFrom(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	id := r.PathValue("id")
	if wait > 0 {
		// Long-poll: hold the reply until the job finishes, the wait
		// elapses or the client goes away. Wait's own error is dropped —
		// the view read below reports the outcome, and an unknown id
		// returns at once and answers 404.
		ctx, cancel := context.WithTimeout(r.Context(), wait)
		s.Wait(ctx, id)
		cancel()
	}
	v, ok := s.Job(id)
	if !ok {
		httpError(w, http.StatusNotFound, "unknown job")
		return
	}
	// The poll that observes a finished job carries the job's own stage
	// breakdown to the request log: a slow poll is almost always slow
	// because the job it waited on was, and the breakdown says where.
	if v.Status == StatusDone || v.Status == StatusFailed || v.Status == StatusCancelled {
		if rec := stageRecorderFrom(r.Context()); rec != nil {
			for stage, d := range s.jobStages(id) {
				rec.Add(stage, d)
			}
		}
	}
	writeJSON(w, http.StatusOK, v)
}

// handleTrace exports a finished job's trace in the Chrome trace-event
// format: load the body in Perfetto (ui.perfetto.dev) or chrome://tracing
// to see submit, per-replicate queue wait and execution (with the
// step-phase split in span args), and assembly on a shared timeline.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	tr, ok, err := s.JobTrace(r.PathValue("id"))
	switch {
	case !ok:
		httpError(w, http.StatusNotFound, "unknown job")
		return
	case err != nil:
		httpError(w, http.StatusConflict, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	tr.WriteChromeTrace(w)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	payload, ok := s.Result(r.PathValue("hash"))
	if !ok {
		httpError(w, http.StatusNotFound, "no cached result for this hash")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(payload)
}

// handleSeries streams a cached result's observed time series as NDJSON:
// one JSON object per (observable, step) aggregate, the canonical encoding
// shared byte for byte with the library (obs.WriteNDJSON) and `mobisim
// -series-out -`.
func (s *Server) handleSeries(w http.ResponseWriter, r *http.Request) {
	payload, ok, err := s.Series(r.PathValue("hash"))
	switch {
	case !ok:
		httpError(w, http.StatusNotFound, "no cached result for this hash")
		return
	case errors.Is(err, ErrNoSeries):
		httpError(w, http.StatusNotFound, err.Error())
		return
	case err != nil:
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	w.Write(payload)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
