// Command mobibench is a closed-loop load generator for the simulation
// service: it drives a real mobiserved — an in-process instance by
// default, or any running daemon via -addr — with a configurable number
// of concurrent clients for a fixed duration per workload, measures
// end-to-end request latency client-side on internal/telemetry histograms
// (p50/p90/p99), reads the server's own request-lifecycle stage
// histograms back off /metrics (queue wait, per-replicate execution, …)
// for the same window, and prints the whole report as JSON on stdout. It
// drives the load-, chaos- and fleet-smoke CI jobs; performance is
// measured by perfbench (perfbench/README.md), not here.
//
// Workloads (run as separate phases, so each gets its own quantiles):
//
//	cold    unique-seed broadcast scenarios; every request executes a
//	        full simulation (cache miss by construction)
//	cached  one fixed scenario submitted repeatedly; after warm-up every
//	        request is answered from the hash-keyed result cache
//	sweep   small two-point sweeps with unique base seeds, polled to
//	        completion through /v1/sweeps
//	series  NDJSON series fetches of a pre-warmed observed scenario
//	chaos   opt-in: cold-style submissions retried under the fleet's
//	        retry policy (cluster.Attempts tries, cluster.Backoff between
//	        them) against a fault-injecting server (-chaos, or an
//	        external daemon started with one)
//	store   opt-in: resubmissions of a pre-warmed spec set against a
//	        server whose LRU is too small to hold it, so nearly every
//	        hit is served through the disk result store (internal/store);
//	        boots its own store-armed in-process server unless -addr
//	        names a daemon started with -store
//	fleet   opt-in: unique-seed sweeps against a coordinator that shards
//	        points across workers by rendezvous hash (internal/cluster);
//	        boots its own two-worker in-process fleet unless -addr names
//	        a daemon started with -coordinator
//
// The loop is closed: each client submits, waits for the result, then
// submits again — so the reported throughput at concurrency -c is the
// service's saturation throughput at that offered concurrency, and
// latency includes queueing exactly as a real caller sees it.
//
// Usage:
//
//	go run ./cmd/mobibench -c 8 -d 3s
//	go run ./cmd/mobibench -addr http://localhost:8080 -workloads cold,cached
//	go run ./cmd/mobibench -smoke          # CI: seconds, schema-validated, no report printed
//	go run ./cmd/mobibench -smoke -trace-out bench-trace.json   # plus a Perfetto-loadable trace
//	go run ./cmd/mobibench -smoke -workloads chaos -chaos 'worker-panic:0.05'   # retry-path smoke
//	go run ./cmd/mobibench -smoke -workloads store,fleet        # distributed-tier smoke
//
// -trace-out additionally records a client-side execution trace — one span
// per request on a lane per (workload, client), capped per phase so long
// runs stay loadable — validates it as Chrome trace-event JSON, and writes
// it to the given file. Load it in Perfetto (ui.perfetto.dev) or
// chrome://tracing to see the closed loop's request pacing.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mobilenet/internal/chaos"
	"mobilenet/internal/cluster"
	"mobilenet/internal/prof"
	"mobilenet/internal/simserve"
	"mobilenet/internal/store"
	"mobilenet/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mobibench:", err)
		os.Exit(1)
	}
}

// benchConfig is the parsed flag set.
type benchConfig struct {
	addr      string // base URL of a running mobiserved; "" = in-process
	conc      int
	duration  time.Duration
	workloads []string
	nodes     int
	agents    int
	traceOut  string  // "" = no trace export
	smoke     bool    // validate the report instead of printing it
	chaosSpec string  // fault-injection spec for the in-process server
	rateLimit float64 // per-client rate limit for the in-process server
}

// knownWorkloads in report order. chaos, store and fleet are opt-in (not
// part of defaultWorkloads): chaos expects a fault-injecting server and
// measures the retry path; store and fleet boot their own store-armed or
// sharded backends — all three would only muddy the default report.
var knownWorkloads = []string{"cold", "cached", "sweep", "series", "chaos", "store", "fleet"}

// defaultWorkloads are the phases a plain run benches.
var defaultWorkloads = []string{"cold", "cached", "sweep", "series"}

// normalizeAddr turns a bare host:port into a base URL, so
// `-addr localhost:8080` and `-addr http://localhost:8080` both work.
func normalizeAddr(addr string) string {
	if addr == "" || strings.Contains(addr, "://") {
		return addr
	}
	return "http://" + addr
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("mobibench", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", "", "host:port or base URL of a running mobiserved (default: start one in-process)")
		conc      = fs.Int("c", 8, "concurrent closed-loop clients per workload")
		duration  = fs.Duration("d", 3*time.Second, "measured duration per workload phase")
		workloads = fs.String("workloads", strings.Join(defaultWorkloads, ","), "comma-separated workload phases to run (chaos is opt-in)")
		nodes     = fs.Int("nodes", 256, "grid nodes of the probe scenario")
		agents    = fs.Int("agents", 8, "agents of the probe scenario")
		traceOut  = fs.String("trace-out", "", "export a client-side bench trace (Chrome trace-event JSON, validated before writing) to this file")
		smoke     = fs.Bool("smoke", false, "CI smoke mode: short phases, validate the report schema, print no report (honours -addr)")
		chaosSpec = fs.String("chaos", "", "arm the in-process server with this fault-injection spec (see internal/chaos; ignored with -addr)")
		rateLim   = fs.Float64("rate-limit", 0, "per-client rate limit for the in-process server (ignored with -addr)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := benchConfig{
		addr: normalizeAddr(*addr), conc: *conc, duration: *duration,
		nodes: *nodes, agents: *agents, traceOut: *traceOut, smoke: *smoke,
		chaosSpec: *chaosSpec, rateLimit: *rateLim,
	}
	if cfg.smoke {
		// Seconds, not minutes: every workload path is exercised, but just
		// long enough to produce non-degenerate quantiles. -addr is
		// honoured so CI can smoke a chaos-armed external daemon.
		cfg.conc = 4
		cfg.duration = 250 * time.Millisecond
	}
	if cfg.conc < 1 || cfg.duration <= 0 || cfg.nodes < 4 || cfg.agents < 1 {
		return fmt.Errorf("c, d, nodes and agents must be positive (and nodes at least 4)")
	}
	for _, w := range strings.Split(*workloads, ",") {
		w = strings.TrimSpace(w)
		if w == "" {
			continue
		}
		known := false
		for _, k := range knownWorkloads {
			known = known || w == k
		}
		if !known {
			return fmt.Errorf("unknown workload %q (want a subset of %s)", w, strings.Join(knownWorkloads, ","))
		}
		cfg.workloads = append(cfg.workloads, w)
	}
	if len(cfg.workloads) == 0 {
		return fmt.Errorf("no workloads selected")
	}

	report, err := runBench(cfg, out)
	if err != nil {
		return err
	}
	if err := validateReport(report, cfg.workloads); err != nil {
		return fmt.Errorf("report failed schema validation: %w", err)
	}
	if cfg.smoke {
		fmt.Fprintf(out, "mobibench: schema ok, %d workloads validated\n", len(report.Results))
		return nil
	}
	encoded, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	_, err = out.Write(append(encoded, '\n'))
	return err
}

// Report is the JSON report mobibench prints: the environment, the offered
// load and the per-workload results.
type Report struct {
	Environment Environment               `json:"environment"`
	Config      RunConfig                 `json:"config"`
	Results     map[string]WorkloadResult `json:"results"`
	Notes       string                    `json:"notes,omitempty"`
}

// Environment records where the report was taken.
type Environment struct {
	Goos       string `json:"goos"`
	Goarch     string `json:"goarch"`
	GoVersion  string `json:"go_version"`
	Gomaxprocs int    `json:"gomaxprocs"`
}

// RunConfig records the offered load.
type RunConfig struct {
	Target      string  `json:"target"` // "in-process" or the -addr URL
	Concurrency int     `json:"concurrency"`
	DurationS   float64 `json:"duration_s"` // per workload phase
	Nodes       int     `json:"nodes"`
	Agents      int     `json:"agents"`
}

// Quantiles are latency quantiles in milliseconds.
type Quantiles struct {
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
	Mean float64 `json:"mean"`
}

// WorkloadResult is one workload phase's outcome: client-side end-to-end
// latency, saturation throughput at the offered concurrency, and the
// server's own stage latencies recovered from /metrics for the same
// window (scrape-resolution quantiles; absent for stages that did not
// fire during the phase).
type WorkloadResult struct {
	Requests       uint64               `json:"requests"`
	Errors         uint64               `json:"errors"`
	ThroughputRPS  float64              `json:"throughput_rps"`
	LatencyMS      Quantiles            `json:"latency_ms"`
	ServerStagesMS map[string]Quantiles `json:"server_stages_ms,omitempty"`
}

// runBench stands up (or connects to) the service, runs every selected
// workload phase, and assembles the report.
func runBench(cfg benchConfig, progress io.Writer) (*Report, error) {
	base := cfg.addr
	if base == "" {
		local, shutdown, err := startLocal(cfg)
		if err != nil {
			return nil, err
		}
		defer shutdown()
		base = local
	}
	cl := newClient(base, cfg.conc)
	if err := cl.waitHealthy(10 * time.Second); err != nil {
		return nil, err
	}

	target := "in-process"
	if cfg.addr != "" {
		target = cfg.addr
	}
	report := &Report{
		Environment: Environment{
			Goos: runtime.GOOS, Goarch: runtime.GOARCH,
			GoVersion: runtime.Version(), Gomaxprocs: runtime.GOMAXPROCS(0),
		},
		Config: RunConfig{
			Target: target, Concurrency: cfg.conc,
			DurationS: cfg.duration.Seconds(), Nodes: cfg.nodes, Agents: cfg.agents,
		},
		Results: make(map[string]WorkloadResult, len(cfg.workloads)),
		Notes:   "Workloads: cold = unique-seed scenarios (every request simulates), cached = one scenario re-submitted (LRU hit path), sweep = two-point sweeps with unique base seeds, series = NDJSON series fetches of one observed scenario. The cold/cached latency gap is the value of content-hash caching at the service level; queue_wait vs execute in server_stages_ms separates saturation from simulation cost.",
	}
	var tr *prof.Trace
	if cfg.traceOut != "" {
		tr = prof.NewTrace()
	}
	for i, name := range cfg.workloads {
		fmt.Fprintf(progress, "mobibench: workload %s (c=%d, %s)\n", name, cfg.conc, cfg.duration)
		res, err := runPhase(cl, name, cfg, tr, i)
		if err != nil {
			return nil, fmt.Errorf("workload %s: %w", name, err)
		}
		report.Results[name] = res
	}
	if tr != nil {
		if err := writeBenchTrace(tr, cfg.traceOut, progress); err != nil {
			return nil, err
		}
	}
	return report, nil
}

// traceSampleCap bounds the recorded request spans per workload phase, so
// a long bench run exports a trace a viewer can still load; the cap is a
// sample of the closed loop's steady state, not a census.
const traceSampleCap = 2048

// writeBenchTrace validates the bench trace as Chrome trace-event JSON
// (the same validator the schema tests and CI use) and writes it out.
func writeBenchTrace(tr *prof.Trace, path string, progress io.Writer) error {
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		return err
	}
	spans, err := prof.ValidateChromeTrace(buf.Bytes())
	if err != nil {
		return fmt.Errorf("bench trace failed validation: %w", err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(progress, "mobibench: trace %s (%d spans, validated)\n", path, spans)
	return nil
}

// runPhase prepares one workload, scrapes the server's histograms, runs
// the closed loop for the configured duration, scrapes again, and folds
// both views into the result.
func runPhase(cl *client, name string, cfg benchConfig, tr *prof.Trace, phase int) (WorkloadResult, error) {
	request, cleanup, err := makeWorkload(cl, name, cfg)
	if err != nil {
		return WorkloadResult{}, err
	}
	if cleanup != nil {
		defer cleanup()
	}
	before, err := cl.scrape()
	if err != nil {
		return WorkloadResult{}, err
	}

	var (
		hist     telemetry.Histogram
		requests atomic.Uint64
		errCount atomic.Uint64
		sampled  atomic.Uint64
		errMu    sync.Mutex
		firstErr error
	)
	deadline := time.Now().Add(cfg.duration)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < cfg.conc; w++ {
		// One trace lane per (workload, client): a closed loop's spans
		// never overlap within a lane, which is what makes the exported
		// timeline readable.
		tid := int64(phase*cfg.conc+w) + 1
		tr.NameThread(tid, fmt.Sprintf("%s client %d", name, w))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				t0 := time.Now()
				if err := request(); err != nil {
					errCount.Add(1)
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
					continue
				}
				d := time.Since(t0)
				hist.Record(d)
				if tr != nil && sampled.Add(1) <= traceSampleCap {
					tr.Add("request", name, tid, t0, d, nil)
				}
				requests.Add(1)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	after, err := cl.scrape()
	if err != nil {
		return WorkloadResult{}, err
	}
	n := requests.Load()
	if n == 0 {
		if firstErr != nil {
			return WorkloadResult{}, fmt.Errorf("no request succeeded; first error: %w", firstErr)
		}
		return WorkloadResult{}, fmt.Errorf("no request completed within %s", cfg.duration)
	}

	res := WorkloadResult{
		Requests:      n,
		Errors:        errCount.Load(),
		ThroughputRPS: float64(n) / elapsed.Seconds(),
		LatencyMS: Quantiles{
			P50:  ms(hist.Quantile(0.50)),
			P90:  ms(hist.Quantile(0.90)),
			P99:  ms(hist.Quantile(0.99)),
			Mean: hist.Sum().Seconds() * 1e3 / float64(n),
		},
		ServerStagesMS: make(map[string]Quantiles),
	}
	for _, stage := range []string{"admission", "queue_wait", "execute", "assemble", "cache_write", "sweep_expand", "series_render"} {
		key := `mobiserved_stage_seconds{stage="` + stage + `"}`
		a, okA := after[key]
		if !okA {
			continue
		}
		window := a
		if b, okB := before[key]; okB {
			if diff, ok := a.Sub(b); ok {
				window = diff
			}
		}
		if window.Count() == 0 {
			continue
		}
		res.ServerStagesMS[stage] = Quantiles{
			P50:  window.Quantile(0.50) * 1e3,
			P90:  window.Quantile(0.90) * 1e3,
			P99:  window.Quantile(0.99) * 1e3,
			Mean: window.Sum / float64(window.Count()) * 1e3,
		}
	}
	if len(res.ServerStagesMS) == 0 {
		res.ServerStagesMS = nil
	}
	return res, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// makeWorkload returns the request function one closed-loop client calls
// repeatedly, after any pre-warm the workload needs, plus an optional
// cleanup for workloads that boot their own backends (store, fleet). Seeds
// come from a package-level counter so every "unique" request is unique
// across the whole bench run, phases included.
func makeWorkload(cl *client, name string, cfg benchConfig) (func() error, func(), error) {
	spec := func(seed uint64) []byte {
		return []byte(fmt.Sprintf(`{"engine":"broadcast","nodes":%d,"agents":%d,"reps":1,"seed":%d}`, cfg.nodes, cfg.agents, seed))
	}
	sweepSpec := func(seed uint64) []byte {
		return []byte(fmt.Sprintf(
			`{"base":{"engine":"broadcast","nodes":%d,"agents":%d,"reps":1,"seed":%d},"axes":[{"field":"agents","values":[%d,%d]}]}`,
			cfg.nodes, cfg.agents, seed, cfg.agents, cfg.agents*2))
	}
	switch name {
	case "cold":
		return func() error {
			_, err := cl.submitAndWait(spec(nextSeed()))
			return err
		}, nil, nil
	case "cached":
		warm := spec(1)
		if _, err := cl.submitAndWait(warm); err != nil {
			return nil, nil, fmt.Errorf("pre-warm: %w", err)
		}
		return func() error {
			_, err := cl.submitAndWait(warm)
			return err
		}, nil, nil
	case "sweep":
		return func() error {
			return cl.sweepAndWait(sweepSpec(nextSeed()))
		}, nil, nil
	case "series":
		observed := []byte(fmt.Sprintf(
			`{"engine":"broadcast","nodes":%d,"agents":%d,"reps":1,"seed":2,"observe":{"observables":["informed"],"every":4}}`,
			cfg.nodes, cfg.agents))
		hash, err := cl.submitAndWait(observed)
		if err != nil {
			return nil, nil, fmt.Errorf("pre-warm: %w", err)
		}
		return func() error { return cl.getSeries(hash) }, nil, nil
	case "store":
		// The disk-hit path: a pre-warmed spec set resubmitted against a
		// server whose LRU holds only two entries, so nearly every answer
		// reads through to the content-addressed disk store. With -addr the
		// external daemon is assumed to carry -store (and its own -cache).
		target, cleanup := cl, func() {}
		if cfg.addr == "" {
			base, shutdown, err := startStoreServer()
			if err != nil {
				return nil, nil, err
			}
			cleanup = shutdown
			target = newClient(base, cfg.conc)
			if err := target.waitHealthy(10 * time.Second); err != nil {
				cleanup()
				return nil, nil, err
			}
		}
		const specSet = 32
		specs := make([][]byte, specSet)
		for i := range specs {
			specs[i] = spec(nextSeed())
			if _, err := target.submitAndWait(specs[i]); err != nil {
				cleanup()
				return nil, nil, fmt.Errorf("pre-warm: %w", err)
			}
		}
		var next atomic.Uint64
		return func() error {
			_, err := target.submitAndWait(specs[next.Add(1)%specSet])
			return err
		}, cleanup, nil
	case "fleet":
		// Unique-seed two-point sweeps against a coordinator: each point is
		// dispatched to its rendezvous home over real HTTP. With -addr the
		// external daemon is assumed to run -coordinator.
		target, cleanup := cl, func() {}
		if cfg.addr == "" {
			base, shutdown, err := startFleet(2)
			if err != nil {
				return nil, nil, err
			}
			cleanup = shutdown
			target = newClient(base, cfg.conc)
			if err := target.waitHealthy(10 * time.Second); err != nil {
				cleanup()
				return nil, nil, err
			}
		}
		return func() error {
			return target.sweepAndWait(sweepSpec(nextSeed()))
		}, cleanup, nil
	case "chaos":
		// The resilience workload: cold-style submissions against a
		// fault-injecting server, retried the way a well-behaved client
		// should — under the fleet's retry policy. One logical
		// request keeps one spec across its attempts (a real client
		// retries the same work), and counts as an error only when every
		// attempt fails.
		return func() error {
			s := spec(nextSeed())
			var lastErr error
			for attempt := 0; attempt < cluster.Attempts; attempt++ {
				if attempt > 0 {
					time.Sleep(cluster.Backoff(attempt))
				}
				if _, err := cl.submitAndWait(s); err == nil {
					return nil
				} else {
					lastErr = err
				}
			}
			return fmt.Errorf("%d attempts exhausted: %w", cluster.Attempts, lastErr)
		}, nil, nil
	}
	return nil, nil, fmt.Errorf("unknown workload %q", name)
}

var seedCounter atomic.Uint64

// nextSeed returns a seed no other request of this bench run has used.
// The fixed offset keeps the generated specs clear of the small seeds the
// warm workloads and the repo's examples pin.
func nextSeed() uint64 { return 1_000_000 + seedCounter.Add(1) }

// startLocal boots an in-process mobiserved-equivalent (the same
// simserve.Server behind a plain http.Server on a loopback port) and
// returns its base URL and a shutdown func. -chaos and -rate-limit arm
// the local server so the chaos workload can bench the retry path
// without an external daemon.
func startLocal(cfg benchConfig) (string, func(), error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	injector, err := chaos.Parse(cfg.chaosSpec)
	if err != nil {
		return "", nil, err
	}
	// The deadline machinery is always armed, at the client's own request
	// budget — hardening on, at a level the bench never trips.
	svc := simserve.New(simserve.Config{
		Chaos:           injector,
		RateLimit:       cfg.rateLimit,
		DefaultDeadline: requestBudget,
	})
	hs := &http.Server{Handler: svc}
	go hs.Serve(l)
	shutdown := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		hs.Shutdown(ctx)
		svc.Shutdown(ctx)
	}
	return "http://" + l.Addr().String(), shutdown, nil
}

// serveOne puts a service behind a loopback HTTP listener and returns the
// base URL plus a shutdown that drains both layers.
func serveOne(svc *simserve.Server) (string, func(), error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: svc}
	go hs.Serve(l)
	shutdown := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		hs.Shutdown(ctx)
		svc.Shutdown(ctx)
	}
	return "http://" + l.Addr().String(), shutdown, nil
}

// startStoreServer boots an in-process server with a disk result store in
// a throwaway directory and an LRU deliberately too small (2 entries) to
// answer the store workload's 32-spec set from memory.
func startStoreServer() (string, func(), error) {
	dir, err := os.MkdirTemp("", "mobibench-store-")
	if err != nil {
		return "", nil, err
	}
	st, err := store.Open(dir, 1<<30)
	if err != nil {
		os.RemoveAll(dir)
		return "", nil, err
	}
	svc := simserve.New(simserve.Config{CacheEntries: 2, Store: st, DefaultDeadline: requestBudget})
	base, shutdown, err := serveOne(svc)
	if err != nil {
		os.RemoveAll(dir)
		return "", nil, err
	}
	return base, func() { shutdown(); os.RemoveAll(dir) }, nil
}

// startFleet boots n in-process workers plus a coordinator sharding sweep
// points across them — the same wiring cmd/mobiserved -coordinator uses —
// and returns the coordinator's base URL and a fleet-wide shutdown.
func startFleet(n int) (string, func(), error) {
	var shutdowns []func()
	shutdownAll := func() {
		// Coordinator first: it stops dispatching before its workers go away.
		for i := len(shutdowns) - 1; i >= 0; i-- {
			shutdowns[i]()
		}
	}
	fail := func(err error) (string, func(), error) {
		shutdownAll()
		return "", nil, err
	}
	addrs := make([]string, 0, n)
	for i := 0; i < n; i++ {
		base, shutdown, err := serveOne(simserve.New(simserve.Config{DefaultDeadline: requestBudget}))
		if err != nil {
			return fail(err)
		}
		shutdowns = append(shutdowns, shutdown)
		addrs = append(addrs, strings.TrimPrefix(base, "http://"))
	}
	var coord *simserve.Server
	exec, err := cluster.New(cluster.Config{
		Workers: addrs,
		Lookup:  func(hash string) ([]byte, bool) { return coord.Result(hash) },
		Persist: func(hash string, payload []byte) { coord.PutResult(hash, payload) },
	})
	if err != nil {
		return fail(err)
	}
	coord = simserve.New(simserve.Config{Executor: exec, DefaultDeadline: requestBudget})
	base, shutdown, err := serveOne(coord)
	if err != nil {
		return fail(err)
	}
	shutdowns = append(shutdowns, shutdown)
	return base, shutdownAll, nil
}

// client is a thin HTTP client over the service API with the polling
// loops the closed-loop workers run.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string, conc int) *client {
	tr := &http.Transport{
		MaxIdleConns:        conc * 2,
		MaxIdleConnsPerHost: conc * 2,
	}
	return &client{base: strings.TrimRight(base, "/"), hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (c *client) waitHealthy(budget time.Duration) error {
	deadline := time.Now().Add(budget)
	for time.Now().Before(deadline) {
		resp, err := c.hc.Get(c.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("server at %s never became healthy", c.base)
}

// pollInterval paces job/sweep polling; well under the cold scenario's
// execution time, so polling quantisation stays small against the
// latencies being measured.
const pollInterval = 300 * time.Microsecond

// requestBudget caps one closed-loop request end to end, so a wedged
// server fails the bench instead of hanging it.
const requestBudget = 30 * time.Second

var errJobFailed = errors.New("job failed")

// submitAndWait POSTs a scenario and blocks until its result exists,
// returning the content hash. A 200 is the cached fast path; a 202 is
// polled through /v1/jobs/{id}.
func (c *client) submitAndWait(spec []byte) (string, error) {
	resp, err := c.hc.Post(c.base+"/v1/run", "application/json", bytes.NewReader(spec))
	if err != nil {
		return "", err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return "", fmt.Errorf("POST /v1/run: status %d: %.200s", resp.StatusCode, body)
	}
	var ticket struct {
		JobID  string `json:"job_id"`
		Hash   string `json:"hash"`
		Cached bool   `json:"cached"`
	}
	if err := json.Unmarshal(body, &ticket); err != nil {
		return "", err
	}
	if ticket.Cached {
		return ticket.Hash, nil
	}
	deadline := time.Now().Add(requestBudget)
	for time.Now().Before(deadline) {
		resp, err := c.hc.Get(c.base + "/v1/jobs/" + ticket.JobID)
		if err != nil {
			return "", err
		}
		var view struct {
			Status string `json:"status"`
			Error  string `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&view)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			return "", err
		}
		switch view.Status {
		case "done":
			return ticket.Hash, nil
		case "failed":
			return "", fmt.Errorf("%w: %s", errJobFailed, view.Error)
		case "cancelled":
			return "", fmt.Errorf("%w (cancelled): %s", errJobFailed, view.Error)
		}
		time.Sleep(pollInterval)
	}
	return "", fmt.Errorf("job %s did not finish within %s", ticket.JobID, requestBudget)
}

// sweepAndWait POSTs a sweep spec and polls /v1/sweeps/{id} to completion.
func (c *client) sweepAndWait(spec []byte) error {
	resp, err := c.hc.Post(c.base+"/v1/sweeps", "application/json", bytes.NewReader(spec))
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("POST /v1/sweeps: status %d: %.200s", resp.StatusCode, body)
	}
	var ticket struct {
		SweepID string `json:"sweep_id"`
	}
	if err := json.Unmarshal(body, &ticket); err != nil {
		return err
	}
	deadline := time.Now().Add(requestBudget)
	for time.Now().Before(deadline) {
		resp, err := c.hc.Get(c.base + "/v1/sweeps/" + ticket.SweepID)
		if err != nil {
			return err
		}
		var view struct {
			Status string `json:"status"`
			Error  string `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&view)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		switch view.Status {
		case "done":
			return nil
		case "failed":
			return fmt.Errorf("sweep failed: %s", view.Error)
		}
		time.Sleep(pollInterval)
	}
	return fmt.Errorf("sweep %s did not finish within %s", ticket.SweepID, requestBudget)
}

// getSeries fetches a cached result's NDJSON series.
func (c *client) getSeries(hash string) error {
	resp, err := c.hc.Get(c.base + "/v1/results/" + hash + "/series")
	if err != nil {
		return err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET series: status %d", resp.StatusCode)
	}
	return nil
}

// scrape fetches /metrics and parses every histogram series out of it.
func (c *client) scrape() (map[string]telemetry.ScrapedHistogram, error) {
	resp, err := c.hc.Get(c.base + "/metrics")
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	return telemetry.ParseHistograms(string(body)), nil
}

// chaosErrorBudget is the error fraction the chaos workload tolerates:
// its retries are expected to absorb injected faults, but a server
// injecting panics at a high rate can legitimately exhaust a few retry
// chains. Every other workload still requires zero errors.
const chaosErrorBudget = 0.2

// validateReport checks the report invariants the CI smoke jobs rely on:
// per requested workload a non-degenerate result with ordered quantiles
// and no errors (chaos alone gets a bounded error budget — surviving
// injected faults is its whole point).
func validateReport(r *Report, workloads []string) error {
	for _, name := range workloads {
		res, ok := r.Results[name]
		if !ok {
			return fmt.Errorf("workload %s missing from results", name)
		}
		total := res.Requests + res.Errors
		switch {
		case res.Requests == 0:
			return fmt.Errorf("workload %s completed zero requests", name)
		case name == "chaos" && float64(res.Errors) > chaosErrorBudget*float64(total):
			return fmt.Errorf("workload chaos exhausted retries on %d of %d requests (budget %g%%)", res.Errors, total, chaosErrorBudget*100)
		case name != "chaos" && res.Errors != 0:
			return fmt.Errorf("workload %s had %d errors", name, res.Errors)
		case res.ThroughputRPS <= 0:
			return fmt.Errorf("workload %s throughput %g", name, res.ThroughputRPS)
		case res.LatencyMS.P50 <= 0 || res.LatencyMS.P99 < res.LatencyMS.P50:
			return fmt.Errorf("workload %s quantiles out of order: p50 %g p99 %g", name, res.LatencyMS.P50, res.LatencyMS.P99)
		}
	}
	return nil
}
