package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mobilenet/internal/prof"
)

// runSmoke runs one workload at smoke scale and returns its summary, the
// human-readable output, and the scratch directory it wrote to.
func runSmoke(t *testing.T, workload string, trace bool) (summary, string, string) {
	t.Helper()
	dir := t.TempDir()
	tr := "0"
	if trace {
		tr = "1"
	}
	var out, errOut bytes.Buffer
	code := run([]string{"-workload", workload, "-smoke", "-seconds", "0.4", "-trace", tr, "-seed", "5", "-scratch", dir}, &out, &errOut)
	if code != 0 {
		t.Fatalf("%s (trace %s) exited %d:\n%s\n%s", workload, tr, code, out.String(), errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var sum summary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
		t.Fatalf("%s: last line is not the summary: %v\n%s", workload, err, out.String())
	}
	return sum, out.String(), dir
}

// checkMetrics asserts the summary reports exactly the catalogue's metrics
// with the catalogue's units.
func checkMetrics(t *testing.T, name string, sum summary, defs []metricDef) {
	t.Helper()
	if !sum.Correct || sum.Failed != 0 || sum.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", name, sum.Correct, sum.Attempted, sum.Failed)
	}
	if len(sum.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics, want %d", name, len(sum.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := sum.Metrics[d.name]
		if !ok {
			t.Errorf("%s: metric %s missing", name, d.name)
			continue
		}
		if m.Unit != d.unit {
			t.Errorf("%s: metric %s unit %q, want %q", name, d.name, m.Unit, d.unit)
		}
	}
}

// TestWorkloadsSmoke runs every workload at smoke scale, untraced and
// traced: outputs check, the summary carries the catalogue's metrics, and
// the traced run writes a trace prof.ValidateChromeTrace accepts.
func TestWorkloadsSmoke(t *testing.T) {
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			sum, _, _ := runSmoke(t, name, false)
			checkMetrics(t, name, sum, endToEnd)
			for _, d := range endToEnd {
				if v := sum.Metrics[d.name].Value; v <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g, want > 0", name, d.name, v)
				}
			}

			sum, out, dir := runSmoke(t, name, true)
			checkMetrics(t, name+" traced", sum, perLayer)
			data, err := os.ReadFile(filepath.Join(dir, "perfbench-trace-"+name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			spans, err := prof.ValidateChromeTrace(data)
			if err != nil || spans == 0 {
				t.Errorf("%s: trace has %d spans, validation: %v", name, spans, err)
			}
			if !strings.Contains(out, "fixed op self time by layer") {
				t.Errorf("%s: traced run printed no decomposition:\n%s", name, out)
			}
		})
	}
}

// TestCatalogueMatchesBenchmarkJSON pins the metric catalogue and the
// workload set to BENCHMARK.json at the repository root.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name   string  `json:"name"`
			Unit   string  `json:"unit"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name   string `json:"name"`
			Unit   string `json:"unit"`
			Better string `json:"better"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	if len(bench.Workloads) < 2 {
		t.Errorf("BENCHMARK.json lists %d workloads, want at least 2", len(bench.Workloads))
	}
	for _, w := range bench.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not one the program runs", w.Name)
		}
	}
	if len(bench.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, catalogue %d", len(bench.EndToEnd), len(endToEnd))
	}
	for i, m := range bench.EndToEnd {
		if d := endToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end_to_end[%d] = %s %s %s, catalogue %+v", i, m.Name, m.Unit, m.Better, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %s bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(bench.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, catalogue %d", len(bench.PerLayer), len(perLayer))
	}
	for i, m := range bench.PerLayer {
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %s %s %s, catalogue %+v", i, m.Name, m.Unit, m.Better, d)
		}
	}
}

// TestTailQuantileRule pins the percentile rule: a tail percentile is
// reported only with at least ten samples beyond it, so a p90 needs 100.
func TestTailQuantileRule(t *testing.T) {
	sample := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i)
		}
		return xs
	}
	for _, tc := range []struct {
		n    int
		q    float64
		ok   bool
		want float64
	}{
		{10, 0.90, false, 9},
		{99, 0.90, false, 90},
		{100, 0.90, true, 90},
		{1000, 0.99, true, 990},
		{999, 0.99, false, 990},
		{1, 0.50, false, 1},
	} {
		got, ok := tailQuantile(sample(tc.n), tc.q)
		if ok != tc.ok || got != tc.want {
			t.Errorf("n=%d q=%g: got %g reportable=%v, want %g reportable=%v", tc.n, tc.q, got, ok, tc.want, tc.ok)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of 1..4 = %g, want 2.5", m)
	}
}

// TestDecomposeSelfTimes pins the self-time arithmetic: a span's self time
// is its duration minus the union of its children, overlapping children
// count once, and the root's self time is the unattributed share.
func TestDecomposeSelfTimes(t *testing.T) {
	tr := newTracer()
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.add(noParent, "client", "op", at(0), at(100))
	call := tr.add(root, "scenario", "run", at(10), at(90)) // self 80 - 60 = 20
	tr.add(call, "mobility", "move", at(20), at(50))        // 30
	tr.add(call, "visibility", "label", at(40), at(80))     // 40; overlaps move by 10
	tr.markFixed(root)
	unattributed, breakdown := tr.decompose()
	if unattributed < 0.1999 || unattributed > 0.2001 {
		t.Errorf("unattributed = %g, want 0.2 (20 of 100 ms)", unattributed)
	}
	for _, want := range []string{"scenario=20.000", "mobility=30.000", "visibility=40.000", "unattributed=20.000"} {
		if !strings.Contains(breakdown, want) {
			t.Errorf("breakdown %q lacks %s", breakdown, want)
		}
	}
}
