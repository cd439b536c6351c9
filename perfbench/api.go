package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"mobilenet/internal/simserve"
)

// pollInterval paces job and sweep polls, as cmd/mobibench does: well
// under the fastest uncached op, so polling quantises latency little.
const pollInterval = 300 * time.Microsecond

// opBudget bounds one op end to end, so a wedged server fails the run
// instead of hanging it.
const opBudget = 30 * time.Second

// serve puts a service behind a loopback listener and returns its base URL
// and a stop that drains both layers and returns once they have stopped.
func serve(svc *simserve.Server) (string, func(), error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: svc}
	done := make(chan struct{})
	go func() {
		defer close(done)
		hs.Serve(l)
	}()
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		hs.Shutdown(ctx)
		svc.Shutdown(ctx)
		<-done
	}
	return "http://" + l.Addr().String(), stop, nil
}

// apiClient speaks the simserve HTTP API with the polling loops a
// closed-loop client runs. Every round trip is a span under the op's root
// when the op is traced.
type apiClient struct {
	base string
	hc   *http.Client
}

func newAPIClient(base string, conns int) *apiClient {
	tr := &http.Transport{MaxIdleConns: 2 * conns, MaxIdleConnsPerHost: 2 * conns}
	return &apiClient{base: base, hc: &http.Client{Transport: tr, Timeout: opBudget}}
}

// close drops the client's idle connections.
func (c *apiClient) close() { c.hc.CloseIdleConnections() }

// do runs one round trip under a span named after its route.
func (c *apiClient) do(tr *tracer, parent int, route, method, path string, body []byte) (int, []byte, error) {
	id := tr.begin(parent, "simserve", route)
	defer tr.end(id)
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// runResult is what one scenario submission returned.
type runResult struct {
	hash    string
	jobID   string // empty when the submission was answered from cache
	payload []byte
	polls   int
}

// run submits a scenario and returns its payload: a cached answer is
// fetched from /v1/results/{hash}, an uncached one is polled through
// /v1/jobs/{id}, whose final view carries the payload.
func (c *apiClient) run(tr *tracer, parent int, body []byte) (runResult, error) {
	status, out, err := c.do(tr, parent, "POST /v1/run", http.MethodPost, "/v1/run", body)
	if err != nil {
		return runResult{}, err
	}
	if status != http.StatusOK && status != http.StatusAccepted {
		return runResult{}, fmt.Errorf("POST /v1/run: status %d: %.200s", status, out)
	}
	var ticket simserve.Ticket
	if err := json.Unmarshal(out, &ticket); err != nil {
		return runResult{}, err
	}
	res := runResult{hash: ticket.Hash}
	if ticket.Cached {
		status, out, err = c.do(tr, parent, "GET /v1/results/{hash}", http.MethodGet, "/v1/results/"+ticket.Hash, nil)
		if err != nil {
			return res, err
		}
		if status != http.StatusOK {
			return res, fmt.Errorf("GET /v1/results: status %d", status)
		}
		res.payload = bytes.TrimSpace(out)
		return res, nil
	}
	res.jobID = ticket.JobID
	deadline := time.Now().Add(opBudget)
	for time.Now().Before(deadline) {
		time.Sleep(pollInterval)
		res.polls++
		status, out, err = c.do(tr, parent, "GET /v1/jobs/{id}", http.MethodGet, "/v1/jobs/"+ticket.JobID, nil)
		if err != nil {
			return res, err
		}
		var view simserve.JobView
		if err := json.Unmarshal(out, &view); err != nil {
			return res, fmt.Errorf("GET /v1/jobs: status %d: %w", status, err)
		}
		switch view.Status {
		case simserve.StatusDone:
			res.payload = view.Result
			return res, nil
		case simserve.StatusFailed, simserve.StatusCancelled:
			return res, fmt.Errorf("job %s %s: %s", ticket.JobID, view.Status, view.Error)
		}
	}
	return res, fmt.Errorf("job %s did not finish within %s", ticket.JobID, opBudget)
}

// sweep submits a sweep and polls it to completion, returning the sweep
// result payload.
func (c *apiClient) sweep(tr *tracer, parent int, body []byte) ([]byte, error) {
	status, out, err := c.do(tr, parent, "POST /v1/sweeps", http.MethodPost, "/v1/sweeps", body)
	if err != nil {
		return nil, err
	}
	if status != http.StatusAccepted {
		return nil, fmt.Errorf("POST /v1/sweeps: status %d: %.200s", status, out)
	}
	var ticket simserve.SweepTicket
	if err := json.Unmarshal(out, &ticket); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(opBudget)
	for time.Now().Before(deadline) {
		time.Sleep(pollInterval)
		status, out, err = c.do(tr, parent, "GET /v1/sweeps/{id}", http.MethodGet, "/v1/sweeps/"+ticket.SweepID, nil)
		if err != nil {
			return nil, err
		}
		var view simserve.SweepView
		if err := json.Unmarshal(out, &view); err != nil {
			return nil, fmt.Errorf("GET /v1/sweeps: status %d: %w", status, err)
		}
		switch view.Status {
		case simserve.StatusDone:
			return view.Result, nil
		case simserve.StatusFailed:
			return nil, fmt.Errorf("sweep %s failed: %s", ticket.SweepID, view.Error)
		}
	}
	return nil, fmt.Errorf("sweep %s did not finish within %s", ticket.SweepID, opBudget)
}

// series fetches a result's NDJSON series.
func (c *apiClient) series(tr *tracer, parent int, hash string) ([]byte, error) {
	status, out, err := c.do(tr, parent, "GET /v1/results/{hash}/series", http.MethodGet, "/v1/results/"+hash+"/series", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET series: status %d: %.200s", status, out)
	}
	return out, nil
}

// scrape reads a /metrics exposition into one value per sample line, keyed
// by the series as written (name plus label set).
func (c *apiClient) scrape() (promSample, error) {
	resp, err := c.hc.Get(c.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	out := make(promSample)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// promSample is one /metrics scrape.
type promSample map[string]float64

// delta is a pair of scrapes bracketing a window.
type delta struct{ before, after promSample }

// diff returns how much a series grew over the window.
func (d delta) diff(series string) float64 { return d.after[series] - d.before[series] }

// meanSeconds returns the mean observation of a histogram series over the
// window (Δsum / Δcount), 0 when it observed nothing.
func (d delta) meanSeconds(family, labels string) float64 {
	n := d.diff(family + "_count" + labels)
	if n <= 0 {
		return 0
	}
	return d.diff(family+"_sum"+labels) / n
}

// count returns a histogram series' observation count over the window.
func (d delta) count(family, labels string) float64 { return d.diff(family + "_count" + labels) }
