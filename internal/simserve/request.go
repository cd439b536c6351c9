package simserve

import (
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// ctxKey is the private type for this package's context keys.
type ctxKey int

const (
	ctxKeyRequestID ctxKey = iota
	ctxKeyStages
)

// requestIDHeader is the request-id header the service honors on requests
// and echoes on every response. Clients that set it can correlate their
// own logs with the daemon's; clients that do not still get a
// process-unique id back.
const requestIDHeader = "X-Request-Id"

// maxRequestIDLen bounds an honored client-supplied request id; ids are
// log and trace annotations, and an unbounded one is a log-injection
// vector. Longer ids are replaced, not truncated, so an echoed id is
// always exactly what the logs carry.
const maxRequestIDLen = 128

// newRequestID generates a process-unique request id: the server's start
// time in hex plus a sequence number, matching the shape the daemon's
// request log historically used.
func (s *Server) newRequestID() string {
	return fmt.Sprintf("%x-%d", s.reqBase, s.reqSeq.Add(1))
}

// requestID returns the id for one incoming request: the client's
// X-Request-Id when present (and sane), otherwise a generated one.
func (s *Server) requestID(r *http.Request) string {
	if id := r.Header.Get(requestIDHeader); id != "" && len(id) <= maxRequestIDLen && isPrintableASCII(id) {
		return id
	}
	return s.newRequestID()
}

// isPrintableASCII rejects control bytes and non-ASCII in client ids so an
// echoed header cannot smuggle terminal escapes into logs.
func isPrintableASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] < 0x20 || s[i] > 0x7e {
			return false
		}
	}
	return true
}

// clientIDHeader lets cooperating clients name themselves for fair
// queuing and rate limiting; without it the client id falls back to the
// connection's remote host. Self-reported ids are an honest-client
// mechanism — an adversary splitting itself across ids gains queue
// shares but each id is rate-limited independently.
const clientIDHeader = "X-Client-Id"

// maxClientIDLen bounds an honored client id, same posture as request ids.
const maxClientIDLen = 64

// clientID resolves one request's client identity: the sanitized
// X-Client-Id header when present, else the remote address's host part
// (so all connections from one machine share a lane), else the raw
// remote address.
func clientID(r *http.Request) string {
	if id := r.Header.Get(clientIDHeader); id != "" && len(id) <= maxClientIDLen && isPrintableASCII(id) {
		return id
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// deadlineHeader carries a per-request deadline in whole milliseconds.
// The server's MaxDeadline still caps the result; an unparseable,
// non-positive or unrepresentable value is a 400, not a silent fallback —
// a client that states a deadline means it.
const deadlineHeader = "X-Deadline-Ms"

// maxDeadlineMillis is the largest whole number of milliseconds a
// time.Duration holds; a larger deadline would wrap around when converted.
const maxDeadlineMillis = int64(math.MaxInt64 / time.Millisecond)

// deadlineFrom parses the request's deadline header. Zero with a nil
// error means no deadline was requested (the server default applies).
func deadlineFrom(r *http.Request) (time.Duration, error) {
	v := r.Header.Get(deadlineHeader)
	ms, err := positiveMillis(deadlineHeader, v)
	if ms > maxDeadlineMillis {
		return 0, fmt.Errorf("simserve: %s must be at most %d milliseconds, got %q", deadlineHeader, maxDeadlineMillis, v)
	}
	return time.Duration(ms) * time.Millisecond, err
}

// waitParam opts a job poll into long-polling: the reply waits until the
// job finishes or the wait elapses, whichever comes first.
const waitParam = "wait_ms"

// maxJobWait clamps a long-poll, well under the 10 s per-round-trip
// timeout fleet coordinators apply: a poll is one round trip, so a waiting
// client never times out on the server's own clamp.
const maxJobWait = time.Second

// waitFrom parses a job poll's wait_ms parameter, clamped to maxJobWait.
// Zero with a nil error means the poll does not wait. The same rule as
// X-Deadline-Ms applies: a stated wait must be a positive integer.
func waitFrom(r *http.Request) (time.Duration, error) {
	ms, err := positiveMillis(waitParam, r.URL.Query().Get(waitParam))
	return time.Duration(min(ms, maxJobWait.Milliseconds())) * time.Millisecond, err
}

// positiveMillis parses a whole-milliseconds request value named name: an
// empty value is absent (0, nil), anything but a positive integer is an
// error.
func positiveMillis(name, v string) (int64, error) {
	if v == "" {
		return 0, nil
	}
	ms, err := strconv.ParseInt(v, 10, 64)
	if err != nil || ms <= 0 {
		return 0, fmt.Errorf("simserve: %s must be a positive integer of milliseconds, got %q", name, v)
	}
	return ms, nil
}

// withRequestID returns ctx carrying the request id.
func withRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, ctxKeyRequestID, id)
}

// requestIDFrom extracts the request id, or "" outside a request.
func requestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(ctxKeyRequestID).(string)
	return id
}

// StageRecorder accumulates the request-lifecycle stage durations observed
// while serving one HTTP request. The service's stage histograms aggregate
// across all requests; the recorder is the per-request view — a handler
// that learns stage durations adds them here (the submit path records its
// admission time, and the job poll that observes a finished job merges the
// job's queue-wait/execute/assemble totals), and the embedding daemon
// attaches the breakdown to its slow-request log line, so a slow poll says
// WHERE the served job's time went rather than just how slow the poll was.
//
// All methods are nil-receiver safe: handlers record unconditionally and
// requests without a recorder pay one nil check.
type StageRecorder struct {
	mu sync.Mutex
	d  map[string]time.Duration
}

// NewStageRecorder returns an empty recorder.
func NewStageRecorder() *StageRecorder { return &StageRecorder{} }

// Add accumulates d under the named stage; zero and negative durations
// are dropped so absent stages stay absent from the breakdown.
func (r *StageRecorder) Add(stage string, d time.Duration) {
	if r == nil || d <= 0 {
		return
	}
	r.mu.Lock()
	if r.d == nil {
		r.d = make(map[string]time.Duration, 4)
	}
	r.d[stage] += d
	r.mu.Unlock()
}

// Stages returns a copy of the accumulated per-stage durations, or nil
// when nothing was recorded.
func (r *StageRecorder) Stages() map[string]time.Duration {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.d) == 0 {
		return nil
	}
	out := make(map[string]time.Duration, len(r.d))
	for k, v := range r.d {
		out[k] = v
	}
	return out
}

// WithStageRecorder returns ctx carrying rec, for the embedding daemon to
// install before delegating to the service handler.
func WithStageRecorder(ctx context.Context, rec *StageRecorder) context.Context {
	return context.WithValue(ctx, ctxKeyStages, rec)
}

// stageRecorderFrom extracts the request's recorder, or nil when the
// embedding handler installed none.
func stageRecorderFrom(ctx context.Context) *StageRecorder {
	rec, _ := ctx.Value(ctxKeyStages).(*StageRecorder)
	return rec
}
