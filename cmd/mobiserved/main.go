// Command mobiserved serves simulations over HTTP: POST a scenario spec,
// poll the job, fetch the result by its content hash. Repeated submissions
// of the same scenario are answered from an LRU cache; replicates run on a
// bounded worker pool under position-derived seeds, so every result is a
// deterministic function of the spec alone.
//
// Parameter sweeps are first-class batch jobs: POST a sweep spec (a base
// scenario plus axes, the same object `mobisim -sweep` runs) to
// /v1/sweeps, poll /v1/sweeps/{id} for per-point progress, and each point
// flows through the same hash-keyed result cache — repeated or
// overlapping sweeps are answered point by point without re-running
// anything.
//
// Scenarios with an `observe` block record per-step time series
// (informed count, component structure, coverage; see internal/obs), and
// GET /v1/results/{hash}/series streams the across-replicate aggregate as
// NDJSON — byte-identical to a library or `mobisim -series-out -` render
// of the same scenario, and cached through the same LRU.
//
// The daemon is observable end to end (internal/telemetry, internal/prof):
// /metrics serves the service counters plus request-lifecycle latency
// histograms (admission, queue wait, per-replicate execution, assembly,
// cache writes, sweep expansion, series rendering), per-engine step-phase
// histograms (mobiserved_engine_phase_seconds{engine,phase}) and per-route
// HTTP latencies, alongside process uptime and build info. Every response
// carries an X-Request-Id header (the client's own when it sent a sane
// one, generated otherwise) that follows the request through logs, job
// traces and sweep points; every request is logged through log/slog under
// that id, and requests slower than -slow-ms are logged at warn level
// with a per-stage stage_*_ms breakdown of where the time went. Finished
// jobs export an execution trace (submit, per-replicate queue wait and
// run with its phase split, assembly) as Chrome trace-event JSON on
// GET /v1/jobs/{id}/trace — loadable in Perfetto or chrome://tracing.
// -pprof mounts the standard net/http/pprof handlers under /debug/pprof/
// for live CPU and heap profiling (off by default: profiles expose
// internals, so opt in).
//
// The daemon is hardened for untrusted, impatient clients. Every job can
// carry a deadline (X-Deadline-Ms header, bounded by -max-deadline, with
// -default-deadline applied to jobs that ask for none); a job past its
// deadline stops mid-replicate within one engine check interval and
// reports status "cancelled". Engine panics are confined to the job that
// triggered them (mobiserved_panics_recovered_total counts them). Workers
// drain a weighted fair queue keyed by client id (X-Client-Id header, or
// the remote host), so one client's batch flood cannot starve another's
// interactive submission, and -rate-limit/-rate-burst shed over-limit
// clients with 429 + Retry-After before their specs are even parsed
// (mobiserved_shed_total{reason} counts queue-full and rate-limit sheds).
// -chaos arms the internal/chaos fault-injection harness — injected
// worker panics, engine step stalls, dropped cache writes, dequeue
// latency — for resilience testing against a live daemon; see
// EXPERIMENTS.md, "Breaking the server on purpose".
//
// The daemon scales past one process along two axes (internal/store,
// internal/cluster; see DESIGN.md §15). -store DIR arms a disk-backed,
// content-hash-addressed result store as a spill tier under the LRU:
// evicted and computed payloads persist (fsync + checksum framing, bounded
// by -store-cap with oldest-first eviction), so a restarted daemon serves
// previously computed points from disk instead of re-running them.
// -coordinator host:port,... turns the process into a fleet coordinator:
// sweeps are expanded exactly as in a single process, then each distinct
// point is dispatched to the worker that wins its rendezvous hash — one
// home per point fleet-wide, so overlapping sweeps from many clients
// converge on one execution per distinct point. A worker that stops
// answering has its points re-routed to the next worker in their hash
// order (bounded retries with jittered exponential backoff,
// mobiserved_points_rerouted_total counts the failovers), and a /healthz
// probe loop clears recovered workers early. The flag is the worker list
// because -workers already names the local pool size.
//
// Usage:
//
//	mobiserved -addr :8080 -workers 8 -queue 256 -cache 256 -sweep-points 1024 -series-points 1048576 \
//	           -log-level info -slow-ms 1000 -pprof \
//	           -default-deadline 0 -max-deadline 0 -rate-limit 0 -rate-burst 0 \
//	           -shutdown-timeout 0 -chaos '' \
//	           -store '' -store-cap 1073741824 -coordinator '' -probe-interval 2s
//
// Quickstart:
//
//	curl -s localhost:8080/v1/run -d '{"engine":"broadcast","nodes":16384,"agents":64,"seed":1}'
//	curl -s localhost:8080/v1/jobs/job-1
//	curl -s localhost:8080/v1/results/<hash>
//	curl -s localhost:8080/v1/run -d '{"engine":"broadcast","nodes":16384,"agents":64,"seed":1,"observe":{"observables":["informed"],"every":4}}'
//	curl -s localhost:8080/v1/results/<hash>/series
//	curl -s localhost:8080/v1/sweeps -d '{"base":{"engine":"broadcast","nodes":16384,"agents":64,"seed":1},"axes":[{"field":"agents","values":[16,64,256]}]}'
//	curl -s localhost:8080/v1/sweeps/sweep-1
//	curl -s localhost:8080/v1/jobs/job-1/trace > trace.json   # open in ui.perfetto.dev
//	curl -s localhost:8080/metrics
//	go tool pprof localhost:8080/debug/pprof/profile?seconds=10   # with -pprof
//
// SIGINT/SIGTERM drain the queue and shut the server down gracefully.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"mobilenet/internal/chaos"
	"mobilenet/internal/cluster"
	"mobilenet/internal/simserve"
	"mobilenet/internal/store"
	"mobilenet/internal/telemetry"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mobiserved:", err)
		os.Exit(1)
	}
}

// serveOpts bundles everything serve needs beyond the service config.
type serveOpts struct {
	cfg      simserve.Config
	fleet    []string      // coordinator mode: worker addresses to shard sweeps across
	probe    time.Duration // worker health-probe interval (coordinator mode)
	grace    time.Duration // drain budget: HTTP requests finish, queue drains
	shutdown time.Duration // hard bound: past this, in-flight jobs are cancelled; 0 = grace
	pprof    bool          // mount /debug/pprof/
	slow     time.Duration // warn-level threshold for request logs; 0 disables
	logger   *slog.Logger
}

func run(ctx context.Context, args []string, out *os.File) error {
	fs := flag.NewFlagSet("mobiserved", flag.ContinueOnError)
	var (
		addr         = fs.String("addr", ":8080", "listen address")
		workers      = fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		queue        = fs.Int("queue", 0, "run-queue depth in replicate tasks (0 = 256)")
		cache        = fs.Int("cache", 0, "result-cache entries (0 = 256)")
		sweepPoints  = fs.Int("sweep-points", 0, "max expanded points per submitted sweep (0 = 1024)")
		seriesPoints = fs.Int("series-points", 0, "max recorded series points per replicate of an observed scenario (0 = 1048576)")
		grace        = fs.Duration("grace", 30*time.Second, "graceful-shutdown budget for in-flight HTTP requests and queue drain")
		shutdownTO   = fs.Duration("shutdown-timeout", 0, "hard shutdown bound: past this, in-flight jobs are cancelled mid-replicate (0 = same as -grace)")
		pprofFlag    = fs.Bool("pprof", false, "mount net/http/pprof profiling handlers under /debug/pprof/")
		logLevel     = fs.String("log-level", "info", "request-log level: debug, info, warn or error")
		slowMS       = fs.Int("slow-ms", 1000, "log requests slower than this many milliseconds at warn level (0 disables)")
		defDeadline  = fs.Duration("default-deadline", 0, "deadline applied to jobs that request none (0 = unbounded)")
		maxDeadline  = fs.Duration("max-deadline", 0, "cap on every job's effective deadline, including deadline-less jobs (0 = no cap)")
		rateLimit    = fs.Float64("rate-limit", 0, "per-client submissions per second; over-limit requests get 429 + Retry-After (0 disables)")
		rateBurst    = fs.Int("rate-burst", 0, "per-client submission burst (0 = one second's worth of -rate-limit)")
		chaosSpec    = fs.String("chaos", "", "fault-injection spec, e.g. 'worker-panic:0.05,slow-step:0.02:1ms' (see internal/chaos; empty disables)")
		storeDir     = fs.String("store", "", "disk result-store directory: spill tier under the LRU, survives restarts (empty disables)")
		storeCap     = fs.Int64("store-cap", 1<<30, "disk result-store size bound in bytes; oldest entries are evicted past it")
		coordinators = fs.String("coordinator", "", "coordinator mode: comma-separated worker addresses (host:port) to shard sweep points across (empty = run as a plain worker)")
		probeEvery   = fs.Duration("probe-interval", 2*time.Second, "coordinator worker /healthz probe interval")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *workers < 0 || *queue < 0 || *cache < 0 || *sweepPoints < 0 || *seriesPoints < 0 || *slowMS < 0 {
		return fmt.Errorf("workers, queue, cache, sweep-points, series-points and slow-ms must be non-negative")
	}
	if *defDeadline < 0 || *maxDeadline < 0 || *shutdownTO < 0 || *rateLimit < 0 || *rateBurst < 0 {
		return fmt.Errorf("default-deadline, max-deadline, shutdown-timeout, rate-limit and rate-burst must be non-negative")
	}
	if *storeDir != "" && *storeCap <= 0 {
		return fmt.Errorf("store-cap must be positive when -store is set")
	}
	if *probeEvery <= 0 {
		return fmt.Errorf("probe-interval must be positive")
	}
	fleet := splitFleet(*coordinators)
	if *coordinators != "" && len(fleet) == 0 {
		return fmt.Errorf("coordinator flag %q names no worker addresses", *coordinators)
	}
	level, err := parseLogLevel(*logLevel)
	if err != nil {
		return err
	}
	injector, err := chaos.Parse(*chaosSpec)
	if err != nil {
		return err
	}
	var diskStore *store.Store
	if *storeDir != "" {
		diskStore, err = store.Open(*storeDir, *storeCap)
		if err != nil {
			return fmt.Errorf("opening result store: %w", err)
		}
	}
	l, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	return serve(ctx, l, serveOpts{
		cfg: simserve.Config{
			Workers: *workers, QueueDepth: *queue, CacheEntries: *cache,
			MaxSweepPoints: *sweepPoints, MaxSeriesPoints: *seriesPoints,
			DefaultDeadline: *defDeadline, MaxDeadline: *maxDeadline,
			RateLimit: *rateLimit, RateBurst: *rateBurst,
			Chaos: injector, Store: diskStore,
		},
		fleet:    fleet,
		probe:    *probeEvery,
		grace:    *grace,
		shutdown: *shutdownTO,
		pprof:    *pprofFlag,
		slow:     time.Duration(*slowMS) * time.Millisecond,
		logger:   logger,
	}, out)
}

// splitFleet parses the -coordinator worker list: comma-separated
// addresses, whitespace tolerated, empties dropped.
func splitFleet(s string) []string {
	var fleet []string
	for _, part := range strings.Split(s, ",") {
		if addr := strings.TrimSpace(part); addr != "" {
			fleet = append(fleet, addr)
		}
	}
	return fleet
}

// parseLogLevel maps the -log-level flag onto a slog level.
func parseLogLevel(s string) (slog.Level, error) {
	switch s {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("unknown log level %q (want debug, info, warn or error)", s)
}

// serve runs the service on the given listener until ctx is cancelled,
// then shuts down gracefully: in-flight HTTP requests finish, the queue
// drains, and the worker pool exits, all within the grace budget.
func serve(ctx context.Context, l net.Listener, opts serveOpts, out *os.File) error {
	// Coordinator mode: sweeps shard across the fleet instead of the local
	// pool. The executor's hooks close over svc and the telemetry handles,
	// both assigned below before the listener accepts its first request —
	// nothing dispatches a point until a sweep arrives over HTTP.
	var (
		svc      *simserve.Server
		exec     *cluster.Executor
		rerouted *telemetry.Counter
		dispatch = make(map[string]*telemetry.Histogram, len(opts.fleet))
	)
	if len(opts.fleet) > 0 {
		var err error
		exec, err = cluster.New(cluster.Config{
			Workers: opts.fleet,
			Lookup:  func(hash string) ([]byte, bool) { return svc.Result(hash) },
			Persist: func(hash string, payload []byte) { svc.PutResult(hash, payload) },
			OnReroute: func(worker string) {
				rerouted.Inc()
				opts.logger.Warn("worker abandoned; points re-routed", "worker", worker)
			},
			OnDispatch: func(worker string, d time.Duration) { dispatch[worker].Record(d) },
		})
		if err != nil {
			return err
		}
		opts.cfg.Executor = exec
	}
	svc = simserve.New(opts.cfg)
	registerProcessMetrics(svc.Metrics())
	if exec != nil {
		m := svc.Metrics()
		rerouted = m.Counter("mobiserved_points_rerouted_total",
			"Sweep-point failovers: a worker exhausted its retry budget and its points moved to the next worker in their rendezvous order.")
		for _, w := range opts.fleet {
			dispatch[w] = m.Histogram("mobiserved_worker_dispatch_seconds",
				"End-to-end remote point dispatch latency (submit, then a long-poll of the job, or a fetch when the worker had the result cached) per worker.",
				telemetry.Label{Name: "worker", Value: w})
		}
		m.IntGaugeFunc("mobiserved_fleet_workers",
			"Workers configured on this coordinator.",
			func() int64 { return int64(len(opts.fleet)) })
		m.IntGaugeFunc("mobiserved_fleet_healthy_workers",
			"Workers not currently marked down.",
			func() int64 { return int64(exec.Healthy()) })
		probeStop := make(chan struct{})
		go exec.ProbeLoop(probeStop, opts.probe)
		defer close(probeStop)
		fmt.Fprintf(out, "mobiserved coordinating %d workers: %s\n", len(opts.fleet), strings.Join(opts.fleet, ", "))
	}
	var handler http.Handler = requestLogger(svc, opts.logger, opts.slow)
	if opts.pprof {
		// Explicit handler registration instead of the package's
		// DefaultServeMux side effect: profiling stays opt-in per process,
		// and the profiled mux bypasses the request logger (a 30-second
		// CPU profile is not a slow request).
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", handler)
		handler = mux
	}
	httpSrv := &http.Server{
		Handler: handler,
		// The daemon faces untrusted clients: bound how long a connection
		// may dribble its headers or sit idle, or slowloris-style clients
		// exhaust goroutines and file descriptors.
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	fmt.Fprintf(out, "mobiserved listening on %s\n", l.Addr())

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(l) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(out, "mobiserved shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), opts.grace)
	defer cancel()
	err := httpSrv.Shutdown(shutCtx)
	// The service gets its own drain budget (-shutdown-timeout, defaulting
	// to -grace): once it expires, in-flight jobs are cancelled
	// mid-replicate and finish as cancelled instead of being waited out.
	// That escalation is expected behaviour under a hard deadline, so it
	// is logged rather than surfaced as a daemon error.
	svcBudget := opts.shutdown
	if svcBudget <= 0 {
		svcBudget = opts.grace
	}
	svcCtx, svcCancel := context.WithTimeout(context.Background(), svcBudget)
	defer svcCancel()
	if serr := svc.Shutdown(svcCtx); serr != nil {
		opts.logger.Warn("shutdown budget expired; in-flight jobs cancelled", "budget", svcBudget.String())
	}
	if errors.Is(err, http.ErrServerClosed) {
		err = nil
	}
	return err
}

// registerProcessMetrics adds the daemon-level gauges to the service's
// /metrics exposition: uptime (computed at scrape) and build info (the
// constant-1 Prometheus convention with the payload in labels).
func registerProcessMetrics(m *telemetry.Registry) {
	start := time.Now()
	m.GaugeFunc("mobiserved_uptime_seconds", "Seconds since the process started serving.",
		func() float64 { return time.Since(start).Seconds() })
	revision := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				revision = s.Value
			}
		}
	}
	m.Info("mobiserved_build_info", "Build metadata; the value is always 1.",
		telemetry.Label{Name: "go_version", Value: runtime.Version()},
		telemetry.Label{Name: "revision", Value: revision})
}

// statusWriter captures the status code and body size a handler wrote, for
// the request log.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// requestLogger wraps the service with structured per-request logging:
// every line carries the request id the service echoed in X-Request-Id
// (the client's own id when it sent one, generated otherwise), plus
// method, path, status, bytes and duration; requests at or above the slow
// threshold are promoted to warn level so tail latency shows up in logs
// even when /metrics is not being watched. Slow-request lines additionally
// break the time down by lifecycle stage (stage_queue_wait_ms,
// stage_execute_ms, stage_assemble_ms, ...) via the per-request stage
// recorder the service fills in, so the log says WHERE a slow request's
// time went, not just that it was slow.
func requestLogger(next http.Handler, log *slog.Logger, slow time.Duration) http.Handler {
	var seq atomic.Uint64
	base := time.Now().UnixNano()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		stages := simserve.NewStageRecorder()
		r = r.WithContext(simserve.WithStageRecorder(r.Context(), stages))
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(sw, r)
		d := time.Since(t0)
		id := sw.Header().Get("X-Request-Id")
		if id == "" {
			// Fallback for handlers outside the service (none today): the
			// log line still gets a unique id even without the echo.
			id = fmt.Sprintf("%x-%d", base, seq.Add(1))
		}
		attrs := []any{
			"id", id,
			"method", r.Method,
			"path", r.URL.Path,
			"status", sw.status,
			"bytes", sw.bytes,
			"duration_ms", float64(d.Microseconds()) / 1000,
			"remote", r.RemoteAddr,
		}
		if slow > 0 && d >= slow {
			log.Warn("slow request", append(attrs, stageAttrs(stages)...)...)
		} else {
			log.Info("request", attrs...)
		}
	})
}

// stageAttrs renders the recorder's per-stage durations as log attributes
// in deterministic (sorted) order.
func stageAttrs(rec *simserve.StageRecorder) []any {
	stages := rec.Stages()
	if len(stages) == 0 {
		return nil
	}
	names := make([]string, 0, len(stages))
	for name := range stages {
		names = append(names, name)
	}
	sort.Strings(names)
	attrs := make([]any, 0, 2*len(names))
	for _, name := range names {
		attrs = append(attrs, "stage_"+name+"_ms", float64(stages[name].Microseconds())/1000)
	}
	return attrs
}
