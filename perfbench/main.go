// Command perfbench is the repository's benchmark. One run measures one
// workload for a fixed window and prints every metric by name and unit,
// with the last line of standard output a JSON summary:
//
//	{"correct": true, "attempted": 12, "failed": 0, "metrics": {"ops_per_s": {"value": 0.61, "unit": "ops/s"}, ...}}
//
// Workloads (all closed loops; see README.md for why each exists):
//
//	broadcast-k1e5  one client; each op is one library broadcast run at
//	                k = 100 000 on a 6.4 M-node torus, 256 steps
//	radius-sweep    one client; each op is one library sweep over
//	                r in {0,1,2,4,8} at k = 1000, one replicate, to completion
//	service-mix     two HTTP clients against an in-process simserve server
//	                with a disk store under an undersized LRU
//	fleet-hop       one HTTP client submitting cold sweeps to a coordinator
//	                that forwards every point to one worker over loopback
//
// With -trace 0 the summary holds the end-to-end metrics. With -trace 1 the
// same workload runs with every other op traced, and the summary holds the
// per-layer metrics; the spans are written as a Chrome trace under the
// scratch directory.
//
// Usage (from the repository root; run.sh builds this package first):
//
//	bash perfbench/run.sh --workload service-mix --seed 7 --seconds 25 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// defaultSeed is the workload seed when -seed is not given; the pinned
// payload digests in digests.go cover it.
const defaultSeed = 2011

// setupReps is how many times a run sets its workload up from scratch. The
// reported setup_s is their median; only the last set-up is measured.
const setupReps = 3

// config is one run's parsed command line.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	smoke    bool   // small sizes, for the package's own tests
	scratch  string // directory for stores and traces; created if missing
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload to run: "+joinNames())
		seed     = fs.Uint64("seed", defaultSeed, "workload seed; every input is drawn from it")
		seconds  = fs.Float64("seconds", 10, "length of the measured window in seconds")
		trace    = fs.Int("trace", 0, "1 = traced run reporting per-layer metrics; 0 = end-to-end metrics")
		smoke    = fs.Bool("smoke", false, "run at smoke scale (seconds, small sizes); for tests")
		scratch  = fs.String("scratch", ".bench_build", "directory for stores, traces and other run files")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, smoke: *smoke, scratch: *scratch}
	if _, ok := workloads[cfg.workload]; !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", cfg.workload, joinNames())
		return 2
	}
	if cfg.seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	rep, err := runBench(cfg, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !rep.Correct {
		return 1
	}
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the JSON object on the last line of standard output.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runBench sets the workload up setupReps times, measures the last set-up
// for cfg.seconds, checks its outputs and assembles the summary. The host
// record and the canary are printed on every run.
func runBench(cfg config, stdout, stderr io.Writer) (*summary, error) {
	if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
		return nil, err
	}
	host := recordHost()
	fmt.Fprintf(stdout, "host: cpu=%q nproc=%d gomaxprocs=%d go=%s\n", host.cpu, host.nproc, host.gomaxprocs, host.goVersion)
	canaryBefore := canary()

	var (
		w      workload
		setups []float64
	)
	for i := 0; i < setupReps; i++ {
		fmt.Fprintf(stderr, "perfbench: %s set-up %d/%d\n", cfg.workload, i+1, setupReps)
		t0 := time.Now()
		next, err := workloads[cfg.workload](cfg)
		if err == nil {
			err = next.setup()
		}
		if err != nil {
			if next != nil {
				next.close()
			}
			return nil, fmt.Errorf("%s set-up: %w", cfg.workload, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupReps-1 {
			next.close()
		} else {
			w = next
		}
		// As the testing package does before each benchmark: start the
		// next set-up, and the window, from a collected heap.
		runtime.GC()
	}
	defer w.close()

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	fmt.Fprintf(stderr, "perfbench: %s measuring %gs (trace=%v)\n", cfg.workload, cfg.seconds, cfg.trace)
	win, err := measure(w, cfg, tr)
	if err != nil {
		return nil, err
	}
	if err := w.verify(); err != nil {
		win.wrong++
		fmt.Fprintf(stderr, "perfbench: %s output check: %v\n", cfg.workload, err)
	}
	canaryAfter := canary()
	canaryMs := median(append(append([]float64{}, canaryBefore...), canaryAfter...))
	fmt.Fprintf(stdout, "canary: before %.3f ms, after %.3f ms (median of %d each)\n",
		median(canaryBefore), median(canaryAfter), len(canaryBefore))

	sum := &summary{
		Correct:   win.wrong == 0 && win.failed == 0,
		Attempted: win.attempted,
		Failed:    win.failed,
		Metrics:   make(map[string]metric),
	}
	fmt.Fprintf(stdout, "ops: %d attempted, %d failed, %d wrong payloads, %d clients\n", win.attempted, win.failed, win.wrong, w.clients())
	if !cfg.trace {
		values := map[string]float64{
			"setup_s":           median(setups),
			"ops_per_s":         win.opsPerS,
			"latency_p50_ms":    median(win.latencies),
			"agent_steps_per_s": win.agentStepsPerS,
			"peak_rss_mb":       peakRSSMiB(),
		}
		for _, d := range endToEnd {
			sum.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
		}
		printMetrics(stdout, endToEnd, sum.Metrics)
		fmt.Fprintf(stdout, "  (setup_s over %d set-ups; latency over %d ops)\n", len(setups), len(win.latencies))
		if p90, ok := tailQuantile(win.latencies, 0.90); ok {
			fmt.Fprintf(stdout, "  latency_p90_ms %.4f ms (n=%d)\n", p90, len(win.latencies))
		} else {
			fmt.Fprintf(stdout, "  latency_p90_ms not reported: %d ops leave fewer than %d samples beyond p90\n", len(win.latencies), minTailSamples)
		}
		return sum, nil
	}

	values := w.layers()
	values["runtime.alloc_mb_per_op"] = win.allocMiBPerOp
	values["runtime.gc_cpu_frac"] = win.gcCPUFrac
	values["host.canary_ms"] = canaryMs
	values["trace.overhead_frac"] = win.overheadFrac
	unattributed, breakdown := tr.decompose()
	values["trace.unattributed_frac"] = unattributed
	for _, d := range perLayer {
		sum.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	printMetrics(stdout, perLayer, sum.Metrics)
	fmt.Fprintf(stdout, "fixed op self time by layer (ms):%s\n", breakdown)
	path := filepath.Join(cfg.scratch, "perfbench-trace-"+cfg.workload+".json")
	spans, err := tr.export(path)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "trace: %s (%d spans, validated)\n", path, spans)
	return sum, nil
}

// printMetrics writes one human-readable line per metric, in catalogue order.
func printMetrics(w io.Writer, defs []metricDef, got map[string]metric) {
	for _, d := range defs {
		m := got[d.name]
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", d.name, m.Value, m.Unit)
	}
}

// joinNames lists the workload names for usage messages.
func joinNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, "|")
}
