package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"mobilenet/internal/scenario"
	"mobilenet/internal/simserve"
)

// errPermanent wraps failures no amount of retrying or re-routing fixes —
// the worker understood the request and rejected it (4xx), or the job ran
// and failed. Re-running the same spec elsewhere would fail identically
// (execution is deterministic), so the executor surfaces these instead of
// burning the failover chain on them.
type errPermanent struct{ err error }

func (e errPermanent) Error() string { return e.err.Error() }
func (e errPermanent) Unwrap() error { return e.err }

// permanent reports whether err came from the permanent class.
func permanent(err error) bool {
	var p errPermanent
	return errors.As(err, &p)
}

// errCancelled marks failures that belong to the requester's envelope, not
// to the point: the requester's sweep was cancelled, or the worker cut the
// job short (the requester's X-Deadline-Ms ran out, or the worker shut
// down). Match with errors.Is. Another requester coalesced onto the same
// point does not share such a failure while its own sweep is live.
var errCancelled = errors.New("cancelled")

// errSweepCancelled is the requester's own sweep dying mid-point.
var errSweepCancelled = fmt.Errorf("cluster: sweep %w", errCancelled)

// roundTripTimeout bounds each HTTP round trip to a worker.
const roundTripTimeout = 10 * time.Second

// pollSlice bounds one long-poll of a dispatched job: the worker answers
// the moment the job finishes, or after this long with the job still
// running, so a failed sweep is noticed within one slice.
const pollSlice = 100 * time.Millisecond

// queueFullRetry paces resubmission against a worker's full run queue.
// Backpressure is flow control, not failure: the worker is alive and
// draining, so the client waits rather than triggering failover (which
// would break the one-home-per-point dedup for no capacity gain).
const queueFullRetry = 5 * time.Millisecond

// Client speaks the mobiserved HTTP API to one worker. The zero value is
// unusable; construct with NewClient.
type Client struct {
	base string
	hc   *http.Client
}

// NewClient returns a client for the worker at addr (host:port or a full
// http:// base URL). The http.Client bounds each round trip, not a whole
// job's run: polls are individual requests.
func NewClient(addr string, hc *http.Client) *Client {
	base := addr
	if len(base) < 7 || base[:7] != "http://" {
		base = "http://" + base
	}
	if hc == nil {
		hc = &http.Client{Timeout: roundTripTimeout}
	}
	return &Client{base: base, hc: hc}
}

// Addr returns the worker's base URL.
func (c *Client) Addr() string { return c.base }

// Healthy probes the worker's liveness endpoint.
func (c *Client) Healthy() error {
	resp, err := c.hc.Get(c.base + "/healthz")
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: worker %s health %d", c.base, resp.StatusCode)
	}
	return nil
}

// Hop is the envelope one point carries over the coordinator→worker hop,
// so the worker's logs, traces, fair queue and deadline see the client
// request behind the point rather than the coordinator.
type Hop struct {
	// RequestID rides every round trip of the point as X-Request-Id.
	RequestID string
	// Client rides the submit as X-Client-Id.
	Client string
	// Deadline is when the point's budget runs out; the submit carries
	// the whole milliseconds left as X-Deadline-Ms. Zero sends none.
	Deadline time.Time
}

// RunPoint executes one canonical spec on the worker end to end: submit
// (absorbing queue-full backpressure), then long-poll the job, whose done
// view carries the result payload — the exact bytes the worker computed
// and cached. A ticket the worker answered from its cache is fetched by
// hash instead. cancelled aborts between round trips (the job keeps
// running on the worker; its result stays in the worker's cache for
// whoever asks next). The returned cached flag reports the worker
// answered without running anything. Errors are permanent (errPermanent:
// 4xx on submit, failed or cancelled jobs) or transient (everything else
// — transport failures, 5xx, a job the worker no longer knows); the
// caller owns retry and failover policy. A cancelled job and a cancelled
// sweep are also of the errCancelled class.
func (c *Client) RunPoint(spec scenario.Spec, hop Hop, cancelled func() bool) (payload []byte, cached bool, err error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, false, errPermanent{err}
	}
	ticket, err := c.submit(body, hop, cancelled)
	if err != nil {
		return nil, false, err
	}
	if ticket.Cached {
		payload, err = c.fetchResult(ticket.Hash, hop)
	} else {
		payload, err = c.awaitJob(ticket, hop, cancelled)
	}
	if err != nil {
		return nil, false, err
	}
	return payload, ticket.Cached, nil
}

// submit posts the spec with the point's client id and remaining
// deadline, re-submitting while the worker's queue is full.
func (c *Client) submit(body []byte, hop Hop, cancelled func() bool) (simserve.Ticket, error) {
	for {
		req, err := http.NewRequest(http.MethodPost, c.base+"/v1/run", bytes.NewReader(body))
		if err != nil {
			return simserve.Ticket{}, err
		}
		req.Header.Set("Content-Type", "application/json")
		if hop.Client != "" {
			req.Header.Set("X-Client-Id", hop.Client)
		}
		if !hop.Deadline.IsZero() {
			// At least 1: a spent budget still reaches the worker as a
			// deadline, never as none.
			left := max(time.Until(hop.Deadline).Milliseconds(), 1)
			req.Header.Set("X-Deadline-Ms", strconv.FormatInt(left, 10))
		}
		status, reply, err := c.send(req, hop)
		switch {
		case err != nil:
			return simserve.Ticket{}, err
		case status == http.StatusOK || status == http.StatusAccepted:
			var t simserve.Ticket
			err := json.Unmarshal(reply, &t)
			return t, err
		case status != http.StatusServiceUnavailable:
			return simserve.Ticket{}, errPermanent{fmt.Errorf("cluster: worker %s rejected the point: %d", c.base, status)}
		}
		// Queue full: wait for the worker to drain, unless the sweep died
		// meanwhile.
		if cancelled != nil && cancelled() {
			return simserve.Ticket{}, errPermanent{errSweepCancelled}
		}
		time.Sleep(queueFullRetry)
	}
}

// awaitJob long-polls the ticket's job in pollSlice waits and returns the
// payload its done view carries. A failed or cancelled job is a permanent
// error carrying the worker's message. A poll that does not answer 200
// with the ticket's own scenario is transient: the worker restarted (job
// ids start again at job-1, so the id is unknown or names another
// scenario) or evicted the finished record, and a resubmission finds the
// result in its cache or store, or recomputes it.
func (c *Client) awaitJob(t simserve.Ticket, hop Hop, cancelled func() bool) ([]byte, error) {
	path := "/v1/jobs/" + t.JobID + "?wait_ms=" + strconv.FormatInt(pollSlice.Milliseconds(), 10)
	for {
		status, reply, err := c.get(path, hop)
		if err != nil {
			return nil, err
		}
		var v simserve.JobView
		if status == http.StatusOK {
			if err := json.Unmarshal(reply, &v); err != nil {
				return nil, err
			}
		}
		if status != http.StatusOK || v.Hash != t.Hash {
			return nil, fmt.Errorf("cluster: worker %s no longer holds job %s for %s (status %d)", c.base, t.JobID, t.Hash, status)
		}
		switch v.Status {
		case simserve.StatusDone:
			return v.Result, nil
		case simserve.StatusFailed:
			return nil, errPermanent{fmt.Errorf("cluster: worker %s job %s failed: %s", c.base, t.JobID, v.Error)}
		case simserve.StatusCancelled:
			return nil, errPermanent{fmt.Errorf("cluster: worker %s job %s %w: %s", c.base, t.JobID, errCancelled, v.Error)}
		}
		if cancelled != nil && cancelled() {
			return nil, errPermanent{errSweepCancelled}
		}
	}
}

// fetchResult fetches the exact cached payload bytes for a hash.
func (c *Client) fetchResult(hash string, hop Hop) ([]byte, error) {
	status, payload, err := c.get("/v1/results/"+hash, hop)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		// The worker answered from its cache but evicted the payload
		// before this fetch. Transient: a resubmission recomputes it.
		return nil, fmt.Errorf("cluster: worker %s has no payload for %s (status %d)", c.base, hash, status)
	}
	return payload, nil
}

// get sends one GET round trip of the point's hop.
func (c *Client) get(path string, hop Hop) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodGet, c.base+path, nil)
	if err != nil {
		return 0, nil, err
	}
	return c.send(req, hop)
}

// send makes one round trip of the point's hop, stamped with its request
// id, and returns the reply's status and body — read to the end, so the
// connection goes back to the pool. Transport errors return as-is
// (transient).
func (c *Client) send(req *http.Request, hop Hop) (int, []byte, error) {
	if hop.RequestID != "" {
		req.Header.Set("X-Request-Id", hop.RequestID)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}
