package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

func TestRunRejectsBadFlags(t *testing.T) {
	t.Parallel()
	for _, args := range [][]string{
		{"-c", "0"},
		{"-d", "0s"},
		{"-nodes", "1"},
		{"-agents", "0"},
		{"-workloads", "cold,warmish"},
		{"-workloads", ","},
		{"-definitely-not-a-flag"},
	} {
		if err := run(args, os.Stdout); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestNormalizeAddr(t *testing.T) {
	t.Parallel()
	for in, want := range map[string]string{
		"":                      "",
		"localhost:8080":        "http://localhost:8080",
		"127.0.0.1:18080":       "http://127.0.0.1:18080",
		"http://localhost:8080": "http://localhost:8080",
		"https://bench.example": "https://bench.example",
	} {
		if got := normalizeAddr(in); got != want {
			t.Errorf("normalizeAddr(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestSmoke is the CI entry point's twin: the full in-process bench at
// smoke scale, every workload phase exercised, the report schema
// validated, and nothing written to disk.
func TestSmoke(t *testing.T) {
	t.Parallel()
	var out bytes.Buffer
	if err := run([]string{"-smoke"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "schema ok") {
		t.Errorf("smoke output missing validation line:\n%s", out.String())
	}
}

// TestWritesBaselineFile runs a tiny two-workload bench and checks that
// the report it prints on stdout, after the progress lines, survives a
// JSON round trip with p50/p99 latency and throughput for the cold and
// cached workloads.
func TestWritesBaselineFile(t *testing.T) {
	t.Parallel()
	var out bytes.Buffer
	err := run([]string{"-c", "2", "-d", "200ms", "-workloads", "cold,cached"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	start := bytes.IndexByte(out.Bytes(), '{')
	if start < 0 {
		t.Fatalf("no JSON report on stdout:\n%s", out.String())
	}
	var rep Report
	if err := json.Unmarshal(out.Bytes()[start:], &rep); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"cold", "cached"} {
		res, ok := rep.Results[name]
		if !ok {
			t.Fatalf("workload %s missing", name)
		}
		if res.LatencyMS.P50 <= 0 || res.LatencyMS.P99 < res.LatencyMS.P50 || res.ThroughputRPS <= 0 {
			t.Errorf("%s: degenerate result %+v", name, res)
		}
	}
	// The cold workload must have recorded server-side queue-wait and
	// execution stages for its window.
	cold := rep.Results["cold"]
	for _, stage := range []string{"queue_wait", "execute"} {
		if q, ok := cold.ServerStagesMS[stage]; !ok || q.P99 <= 0 {
			t.Errorf("cold workload missing server stage %q (got %+v)", stage, cold.ServerStagesMS)
		}
	}
}

// TestDistributedWorkloadsSmoke drives the store and fleet workloads at
// smoke scale: each boots its own backend (store-armed server, two-worker
// fleet) and must produce a schema-valid phase.
func TestDistributedWorkloadsSmoke(t *testing.T) {
	t.Parallel()
	var out bytes.Buffer
	if err := run([]string{"-smoke", "-workloads", "store,fleet"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "schema ok") {
		t.Errorf("smoke output missing validation line:\n%s", out.String())
	}
}

func TestValidateReport(t *testing.T) {
	t.Parallel()
	good := func() *Report {
		return &Report{
			Results: map[string]WorkloadResult{
				"cold": {Requests: 10, ThroughputRPS: 5, LatencyMS: Quantiles{P50: 1, P99: 2}},
			},
		}
	}
	if err := validateReport(good(), []string{"cold"}); err != nil {
		t.Fatalf("valid report rejected: %v", err)
	}
	for name, breakIt := range map[string]func(*Report){
		"missing workload": func(r *Report) { delete(r.Results, "cold") },
		"zero requests":    func(r *Report) { r.Results["cold"] = WorkloadResult{} },
		"errors": func(r *Report) {
			w := r.Results["cold"]
			w.Errors = 1
			r.Results["cold"] = w
		},
		"inverted quantiles": func(r *Report) {
			w := r.Results["cold"]
			w.LatencyMS = Quantiles{P50: 5, P99: 1}
			r.Results["cold"] = w
		},
	} {
		r := good()
		breakIt(r)
		if err := validateReport(r, []string{"cold"}); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}
