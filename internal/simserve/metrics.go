package simserve

import (
	"net/http"
	"time"

	"mobilenet/internal/chaos"
	"mobilenet/internal/prof"
	"mobilenet/internal/scenario"
	"mobilenet/internal/telemetry"
)

// Request-lifecycle stages recorded into the mobiserved_stage_seconds
// histogram family. The taxonomy follows one submission through the
// service: admission (parse-side validation, canonicalisation, hashing,
// bounds and cache probes), queue wait (task enqueue to worker pickup),
// per-replicate execution (Runner.RunRep), result assembly (Assemble plus
// JSON encoding), and the cache write; sweep expansion/dedup and series
// rendering are the two batch-side stages that happen outside the
// single-run path. Keeping queue wait separate from execution is the
// point of the split: a saturated server shows queue-wait p99 exploding
// while execution stays flat, and no single end-to-end number can tell
// those apart.
const (
	stageAdmission    = "admission"
	stageQueueWait    = "queue_wait"
	stageExecute      = "execute"
	stageAssemble     = "assemble"
	stageCacheWrite   = "cache_write"
	stageSweepExpand  = "sweep_expand"
	stageSeriesRender = "series_render"
)

// httpRoutes are the route labels of the mobiserved_http_request_seconds
// histogram family, in registration (and therefore exposition) order.
var httpRoutes = []string{"run", "jobs", "results", "series", "sweep_submit", "sweeps", "healthz", "metrics", "trace"}

// Load-shedding reasons, the label values of mobiserved_shed_total. Shed
// counters are bumped only at the HTTP layer: a sweep dispatcher's
// internal queue-full retries are flow control, not shed client work.
const (
	shedQueueFull   = "queue_full"
	shedRateLimited = "rate_limited"
)

// initMetrics builds the server's telemetry registry. Registration order
// is exposition order: the original hand-written /metrics families come
// first (byte for byte — names, HELP and TYPE lines pinned by
// TestMetricsGoldenExposition), then the hardening counters (panics
// recovered, cancellations, shed, chaos injections), then the histogram
// families, which materialise lazily, series by series, as
// instrumentation fires. The cache hit rate is derived from the two
// counters at scrape time — the server stores only the counters.
func (s *Server) initMetrics() {
	m := telemetry.NewRegistry()
	s.metrics = m
	m.IntGaugeFunc("mobiserved_queue_depth", "Replicate tasks waiting for a worker.",
		func() int64 { return int64(s.QueueDepth()) })
	m.IntGaugeFunc("mobiserved_workers", "Size of the worker pool.",
		func() int64 { return int64(s.cfg.Workers) })
	s.jobsServed = m.Counter("mobiserved_jobs_served_total", "Jobs completed successfully.")
	s.jobsFailed = m.Counter("mobiserved_jobs_failed_total", "Jobs that ended in an error.")
	s.cacheHits = m.Counter("mobiserved_cache_hits_total", "Submissions answered from the result cache.")
	s.cacheMisses = m.Counter("mobiserved_cache_misses_total", "Submissions that had to run.")
	m.GaugeFunc("mobiserved_cache_hit_rate", "Fraction of submissions answered from cache.",
		func() float64 {
			hits, misses := s.cacheHits.Load(), s.cacheMisses.Load()
			if hits+misses == 0 {
				return 0
			}
			return float64(hits) / float64(hits+misses)
		})
	m.IntGaugeFunc("mobiserved_cache_entries", "Results currently cached.",
		func() int64 { return int64(s.cache.Len()) })
	s.sweepsServed = m.Counter("mobiserved_sweeps_served_total", "Sweeps completed successfully.")
	s.sweepsFailed = m.Counter("mobiserved_sweeps_failed_total", "Sweeps that ended in an error.")
	s.sweepPointsCached = m.Counter("mobiserved_sweep_points_cached_total", "Sweep points answered from the result cache.")
	s.seriesServed = m.Counter("mobiserved_series_served_total", "Observed-series payloads served.")
	s.panicsRecovered = m.Counter("mobiserved_panics_recovered_total",
		"Engine panics caught at the worker's replicate boundary.")
	s.jobsCancelled = m.Counter("mobiserved_jobs_cancelled_total",
		"Jobs stopped before completion (deadline expiry or shutdown).")
	s.shed = make(map[string]*telemetry.Counter)
	for _, reason := range []string{shedQueueFull, shedRateLimited} {
		s.shed[reason] = m.Counter("mobiserved_shed_total",
			"Submissions shed at the HTTP layer by reason.",
			telemetry.Label{Name: "reason", Value: reason})
	}
	// Disk-store families exist only when a spill tier is configured, so
	// the memory-only /metrics body — the one TestMetricsGoldenExposition
	// pins — is untouched. Counters are read from the store's own
	// snapshot: the store already counts its outcomes, and mirroring them
	// through gauge functions keeps one source of truth.
	if st := s.cfg.Store; st != nil {
		m.IntGaugeFunc("mobiserved_store_entries", "Results held in the disk store.",
			func() int64 { return int64(st.Stats().Entries) })
		m.IntGaugeFunc("mobiserved_store_bytes", "Payload bytes held in the disk store.",
			func() int64 { return st.Stats().Bytes })
		m.CounterFunc("mobiserved_store_hits_total", "Reads served from the disk store.",
			func() uint64 { return st.Stats().Hits })
		m.CounterFunc("mobiserved_store_misses_total", "Disk-store probes that found nothing.",
			func() uint64 { return st.Stats().Misses })
		m.CounterFunc("mobiserved_store_evictions_total", "Entries evicted from the disk store for space.",
			func() uint64 { return st.Stats().Evictions })
		m.CounterFunc("mobiserved_store_corrupt_total", "Torn or corrupt disk entries detected and dropped.",
			func() uint64 { return st.Stats().Corrupt })
		m.CounterFunc("mobiserved_store_write_errors_total", "Disk-store commits that failed.",
			func() uint64 { return st.Stats().WriteErrors })
		m.CounterFunc("mobiserved_store_dropped_writes_total", "Spill writes shed because the write-behind queue was full.",
			func() uint64 { return s.cache.droppedWrites.Load() })
	}
	// Chaos-injection counters exist only for the points the injector
	// arms, so a production /metrics body never mentions chaos. The
	// OnFire observer is the injector's single notification seam.
	if s.chaos != nil {
		fired := make(map[string]*telemetry.Counter)
		for _, point := range chaos.Points() {
			if !s.chaos.Active(point) {
				continue
			}
			fired[point] = m.Counter("mobiserved_chaos_injections_total",
				"Chaos faults injected by point.",
				telemetry.Label{Name: "point", Value: point})
		}
		s.chaos.OnFire(func(point string) {
			if c := fired[point]; c != nil {
				c.Add(1)
			}
		})
	}

	const stageHelp = "Request-lifecycle stage latency in seconds."
	s.stages = make(map[string]*telemetry.Histogram)
	for _, stage := range []string{
		stageAdmission, stageQueueWait, stageExecute, stageAssemble,
		stageCacheWrite, stageSweepExpand, stageSeriesRender,
	} {
		s.stages[stage] = m.Histogram("mobiserved_stage_seconds", stageHelp, telemetry.Label{Name: "stage", Value: stage})
	}
	s.httpHists = make(map[string]*telemetry.Histogram)
	for _, route := range httpRoutes {
		s.httpHists[route] = m.Histogram("mobiserved_http_request_seconds",
			"HTTP request latency in seconds by route.", telemetry.Label{Name: "route", Value: route})
	}
	// Step-phase histograms: one series per (engine, phase) pair. The label
	// set is fixed at construction — the engine registry crossed with the
	// prof phase vocabulary — never derived from request content, so its
	// cardinality is bounded by design. Workers feed each replicate's
	// profiled per-phase total here, so the unit is seconds per replicate:
	// compare phases within an engine family to see where step time goes.
	// Every replicate is profiled, and the help text says what that costs:
	// at k <= 32 the labeller checks every pair and takes no index lap, so
	// those runs never feed the index series.
	s.phaseHists = make(map[string]map[string]*telemetry.Histogram)
	for _, engine := range scenario.Engines() {
		byPhase := make(map[string]*telemetry.Histogram, int(prof.NumPhases))
		for _, phase := range prof.PhaseNames() {
			byPhase[phase] = m.Histogram("mobiserved_engine_phase_seconds",
				"Per-replicate step-phase wall-clock seconds by engine. Every replicate is profiled: one monotonic clock read per phase boundary, six per broadcast step, or five with no index phase at k <= 32, where the labeller checks every pair. At k = 8 the reads are about two fifths of a replicate's wall time.",
				telemetry.Label{Name: "engine", Value: engine},
				telemetry.Label{Name: "phase", Value: phase})
		}
		s.phaseHists[engine] = byPhase
	}
}

// recordPhases feeds one replicate's profiled per-phase totals into the
// mobiserved_engine_phase_seconds family. Phases the replicate never
// spent time in are absent from the breakdown and observe nothing, so
// their series stay unmaterialised.
func (s *Server) recordPhases(engine string, b *prof.Breakdown) {
	byPhase := s.phaseHists[engine]
	if b == nil || byPhase == nil {
		return
	}
	for phase, sec := range b.Seconds {
		if h := byPhase[phase]; h != nil {
			h.Record(time.Duration(sec * float64(time.Second)))
		}
	}
}

// Metrics returns the server's telemetry registry so the embedding daemon
// can register process-level gauges (uptime, build info) into the same
// /metrics exposition. Register before serving traffic; the registry's
// write paths are concurrency-safe but registration is construction-time
// API.
func (s *Server) Metrics() *telemetry.Registry {
	return s.metrics
}

// handleMetrics renders the registry in the Prometheus text exposition
// format (hand-rolled kernel: the repo takes no dependencies). The body
// starts with the exact pre-telemetry metric families and appends the
// stage and HTTP latency histograms as their series materialise.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.WritePrometheus(w)
}
