package main

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// workload is one benchmark workload. A constructor builds it from the run
// config; setup boots its backends and runs its untimed warm-up; op runs one
// timed op; verify runs the checks that need the whole window; layers
// reports what the traced window measured per layer.
type workload interface {
	setup() error
	clients() int
	// op runs the i-th op of client c and returns the agent-steps it
	// simulated. A non-nil tr means the op is traced. An error wrapping
	// errWrongPayload means the op returned a wrong result.
	op(c, i int, tr *tracer) (agentSteps float64, err error)
	verify() error
	layers() map[string]float64
	close()
}

// workloads maps each workload name to its constructor.
var workloads = map[string]func(config) (workload, error){
	"broadcast-k1e5": newBroadcast,
	"radius-sweep":   newRadiusSweep,
	"service-mix":    newServiceMix,
	"fleet-hop":      newFleetHop,
}

// errWrongPayload marks an op whose output failed its check.
var errWrongPayload = errors.New("wrong payload")

// metricDef is one entry of the metric catalogue; the catalogue must match
// BENCHMARK.json (pinned by TestCatalogueMatchesBenchmarkJSON).
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a -trace 0 run reports, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "ops/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"agent_steps_per_s", "agent-steps/s", "higher"},
	{"peak_rss_mb", "MiB", "lower"},
}

// perLayer are the metrics a -trace 1 run reports. A layer a workload never
// reaches reads 0.
var perLayer = []metricDef{
	{"mobility.move_ms_per_step", "ms", "lower"},
	{"visibility.index_ms_per_step", "ms", "lower"},
	{"visibility.label_ms_per_step", "ms", "lower"},
	{"core.spread_ms_per_step", "ms", "lower"},
	{"scenario.canonical_hash_us", "us", "lower"},
	{"scenario.runrep_ms", "ms", "lower"},
	{"sweep.expand_ms", "ms", "lower"},
	{"sweep.assemble_ms", "ms", "lower"},
	{"sweep.pool_idle_frac", "fraction", "lower"},
	{"simserve.http_run_us", "us", "lower"},
	{"simserve.admission_us", "us", "lower"},
	{"simserve.series_render_us", "us", "lower"},
	{"simserve.queue_wait_ms", "ms", "lower"},
	{"simserve.execute_ms", "ms", "lower"},
	{"simserve.assemble_us", "us", "lower"},
	{"simserve.cache_write_us", "us", "lower"},
	{"simserve.cache_hit_frac", "fraction", "higher"},
	{"simserve.polls_per_request", "count", "lower"},
	{"simserve.shed", "count", "lower"},
	{"store.hit_frac", "fraction", "higher"},
	{"store.get_us", "us", "lower"},
	{"store.put_us", "us", "lower"},
	{"store.dropped_writes", "count", "lower"},
	{"cluster.dispatch_ms", "ms", "lower"},
	{"cluster.hop_ms", "ms", "lower"},
	{"cluster.worker_polls_per_point", "count", "lower"},
	{"cluster.rerouted", "count", "lower"},
	{"runtime.alloc_mb_per_op", "MiB", "lower"},
	{"runtime.gc_cpu_frac", "fraction", "lower"},
	{"host.canary_ms", "ms", "lower"},
	{"trace.unattributed_frac", "fraction", "lower"},
	{"trace.overhead_frac", "fraction", "lower"},
}

// window is what one measured window produced.
type window struct {
	latencies      []float64 // ms, every completed op
	opsPerS        float64
	agentStepsPerS float64
	attempted      int
	failed         int
	wrong          int
	allocMiBPerOp  float64
	gcCPUFrac      float64
	overheadFrac   float64 // traced runs: traced vs untraced op cost
}

// clientTally is one closed-loop client's share of a window.
type clientTally struct {
	lat, tracedLat, untracedLat []float64
	steps                       float64
	elapsed                     time.Duration
	attempted, failed, wrong    int
	firstErr                    error
}

// measure runs the closed loop: each client issues its next op as soon as
// the previous one returns, until cfg.seconds have passed; an op in flight
// at the deadline completes and counts. In a traced run every even op of
// each client is traced, so traced and untraced ops share the window and
// their cost ratio is the tracing overhead.
func measure(w workload, cfg config, tr *tracer) (window, error) {
	n := w.clients()
	tallies := make([]clientTally, n)
	gcBefore := readCPUClasses()
	var msBefore runtime.MemStats
	runtime.ReadMemStats(&msBefore)

	dur := time.Duration(cfg.seconds * float64(time.Second))
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := &tallies[c]
			for i := 0; time.Since(start) < dur; i++ {
				var opTr *tracer
				if tr != nil && i%2 == 0 {
					opTr = tr
				}
				t0 := time.Now()
				steps, err := w.op(c, i, opTr)
				ms := float64(time.Since(t0)) / float64(time.Millisecond)
				t.attempted++
				if err != nil {
					t.failed++
					if errors.Is(err, errWrongPayload) {
						t.wrong++
					}
					if t.firstErr == nil {
						t.firstErr = err
					}
					continue
				}
				t.lat = append(t.lat, ms)
				if opTr != nil {
					t.tracedLat = append(t.tracedLat, ms)
				} else {
					t.untracedLat = append(t.untracedLat, ms)
				}
				t.steps += steps
			}
			t.elapsed = time.Since(start)
		}()
	}
	wg.Wait()

	var msAfter runtime.MemStats
	runtime.ReadMemStats(&msAfter)
	gcAfter := readCPUClasses()

	var win window
	var traced, untraced []float64
	for _, t := range tallies {
		win.latencies = append(win.latencies, t.lat...)
		traced = append(traced, t.tracedLat...)
		untraced = append(untraced, t.untracedLat...)
		win.attempted += t.attempted
		win.failed += t.failed
		win.wrong += t.wrong
		if t.firstErr != nil {
			fmt.Fprintf(os.Stderr, "perfbench: op failed: %v\n", t.firstErr)
		}
		if t.elapsed > 0 {
			win.opsPerS += float64(len(t.lat)) / t.elapsed.Seconds()
			win.agentStepsPerS += t.steps / t.elapsed.Seconds()
		}
	}
	if len(win.latencies) == 0 {
		return win, fmt.Errorf("no op completed in %gs (%d attempted, %d failed)", cfg.seconds, win.attempted, win.failed)
	}
	win.allocMiBPerOp = float64(msAfter.TotalAlloc-msBefore.TotalAlloc) / (1 << 20) / float64(len(win.latencies))
	if total := gcAfter.total - gcBefore.total; total > 0 {
		win.gcCPUFrac = (gcAfter.gc - gcBefore.gc) / total
	}
	if len(traced) > 0 && len(untraced) > 0 {
		win.overheadFrac = mean(traced)/mean(untraced) - 1
	}
	return win, nil
}

// cpuClasses is a snapshot of the runtime's cumulative CPU accounting.
type cpuClasses struct{ gc, total float64 }

// readCPUClasses reads GC and total CPU seconds from runtime/metrics.
func readCPUClasses() cpuClasses {
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	var c cpuClasses
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		c.gc = samples[0].Value.Float64()
	}
	if samples[1].Value.Kind() == metrics.KindFloat64 {
		c.total = samples[1].Value.Float64()
	}
	return c
}

// minTailSamples is how many samples must lie beyond a tail percentile for
// it to be reported.
const minTailSamples = 10

// tailQuantile returns the nearest-rank q-quantile of xs, and whether at
// least minTailSamples samples lie beyond it — a p90 needs 100 samples.
func tailQuantile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q*float64(n) - 1e-9)) // q*n is exact in reals; absorb float error
	if rank < 1 {
		rank = 1
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], n-rank >= minTailSamples
}

// median returns the sample median (mean of the middle two for even n), 0
// for an empty sample.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean, 0 for an empty sample.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// hostRecord says where a run was measured.
type hostRecord struct {
	cpu        string
	nproc      int
	gomaxprocs int
	goVersion  string
}

func recordHost() hostRecord {
	h := hostRecord{cpu: "unknown", nproc: runtime.NumCPU(), gomaxprocs: runtime.GOMAXPROCS(0), goVersion: runtime.Version()}
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return h
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			h.cpu = strings.TrimSpace(v)
			break
		}
	}
	return h
}

// canaryReps is how many times the canary loop runs on each side of a
// workload.
const canaryReps = 5

// canarySink keeps the canary loop's result live.
var canarySink uint64

// canary times a fixed loop owned by the benchmark — a xorshift chain
// scattering into a 64 KiB table — canaryReps times, in milliseconds. It
// does not touch the program under test, so a slower canary means a slower
// host, not a slower change. It is recorded, never divided by.
func canary() []float64 {
	out := make([]float64, canaryReps)
	for r := range out {
		var table [8192]uint64
		x := uint64(0x9E3779B97F4A7C15)
		t0 := time.Now()
		for i := 0; i < 1<<23; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			table[x&8191] += x
		}
		out[r] = float64(time.Since(t0)) / float64(time.Millisecond)
		canarySink += table[x&8191]
	}
	return out
}

// peakRSSMiB returns the process's peak resident set (VmHWM) in MiB, or
// the runtime's reserved memory where /proc is unavailable.
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
