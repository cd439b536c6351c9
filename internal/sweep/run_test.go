package sweep

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"mobilenet/internal/obs"
	"mobilenet/internal/scenario"
)

// stubResult builds a plausible scenario result for a canonical spec.
func stubResult(spec scenario.Spec, steps int) *scenario.Result {
	reps := make([]scenario.Rep, spec.Reps)
	var sum float64
	for i := range reps {
		reps[i] = scenario.Rep{Seed: scenario.RepSeed(spec.Seed, i), Steps: steps + i, Completed: true, CoverageSteps: -1}
		sum += float64(steps + i)
	}
	hash, _ := scenario.HashCanonical(spec)
	return &scenario.Result{
		Engine: spec.Engine, Hash: hash, Reps: reps,
		MeanSteps: sum / float64(len(reps)), AllCompleted: true,
	}
}

func TestRunAgainstRegistryMatchesScenarioRun(t *testing.T) {
	t.Parallel()
	sp := Spec{
		Base: scenario.Spec{Engine: scenario.EngineBroadcast, Nodes: 256, Agents: 4, Seed: 11, Reps: 2},
		Axes: []Axis{{Field: "agents", Values: []any{4, 8}}},
	}
	res, err := Run(sp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("got %d points", len(res.Points))
	}
	for i, p := range res.Points {
		direct, err := scenario.Run(p.Spec)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(p.Result)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(direct)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("point %d result diverges from scenario.Run:\n%s\nvs\n%s", i, got, want)
		}
		if p.Steps.Reps != 2 {
			t.Errorf("point %d aggregated %d reps", i, p.Steps.Reps)
		}
	}
	if res.Hash == "" || len(res.AxisFields) != 1 || res.AxisFields[0] != "agents" {
		t.Errorf("result metadata wrong: %+v", res)
	}
}

// TestRunDedupesIdenticalPoints pins the in-process analogue of the
// service's cache: points that canonicalise to the same scenario execute
// once and share the result.
func TestRunDedupesIdenticalPoints(t *testing.T) {
	t.Parallel()
	var calls atomic.Int32
	sp := Spec{
		Base: scenario.Spec{Engine: scenario.EngineBroadcast, Nodes: 256, Agents: 4, Seed: 1},
		Mode: ModeZip,
		// Rumors is ignored by broadcast, so all three points canonicalise
		// to the same scenario.
		Axes: []Axis{{Field: "rumors", Values: []any{0, 1, 2}}},
	}
	res, err := Run(sp, Options{
		Workers: 1,
		RunPoint: func(spec scenario.Spec) (*scenario.Result, error) {
			calls.Add(1)
			return stubResult(spec, 100), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("identical points ran %d times, want 1", got)
	}
	if len(res.Points) != 3 {
		t.Fatalf("got %d points", len(res.Points))
	}
	for i := 1; i < 3; i++ {
		if res.Points[i].Result != res.Points[0].Result {
			t.Errorf("point %d did not share the deduped result", i)
		}
	}
}

// TestRunFirstErrorSemantics is the regression test for ForEach's
// error handling at the point level: a failing point cancels remaining
// dispatch and the lowest-indexed failed point's error is surfaced.
func TestRunFirstErrorSemantics(t *testing.T) {
	t.Parallel()
	var (
		mu      sync.Mutex
		started []int
	)
	sp := Spec{
		Base: scenario.Spec{Engine: scenario.EngineBroadcast, Nodes: 256, Agents: 4, Seed: 1},
		Axes: []Axis{{Field: "seed", From: i64(0), To: i64(63), Step: i64(1)}},
	}
	points, err := sp.Expand()
	if err != nil {
		t.Fatal(err)
	}
	failAt := map[string]int{points[3].Hash: 3, points[5].Hash: 5}
	_, err = Run(sp, Options{
		Workers: 4,
		RunPoint: func(spec scenario.Spec) (*scenario.Result, error) {
			hash, herr := spec.Hash()
			if herr != nil {
				return nil, herr
			}
			if idx, ok := failAt[hash]; ok {
				return nil, fmt.Errorf("boom at %d", idx)
			}
			mu.Lock()
			for i, p := range points {
				if p.Hash == hash {
					started = append(started, i)
				}
			}
			mu.Unlock()
			return stubResult(spec, 10), nil
		},
	})
	if err == nil {
		t.Fatal("failing sweep returned nil error")
	}
	// Lowest-indexed failure wins, with point context attached.
	if !strings.Contains(err.Error(), "point 3") || !strings.Contains(err.Error(), "boom at 3") {
		t.Errorf("error %q does not surface the lowest-indexed failure", err)
	}
	// Dispatch stopped: with 64 points and a failure at index 3 that
	// returns instantly, the pool cannot have churned through the whole
	// sweep (the bound is loose on purpose — completions racing the
	// cancellation are legitimate).
	mu.Lock()
	n := len(started)
	mu.Unlock()
	if n > 48 {
		t.Errorf("%d points ran after the failure; dispatch was not cancelled", n)
	}
}

func TestRunRequireCompleted(t *testing.T) {
	t.Parallel()
	sp := Spec{
		Base: scenario.Spec{Engine: scenario.EngineBroadcast, Nodes: 256, Agents: 4, Seed: 1},
		Axes: []Axis{{Field: "agents", Values: []any{4, 8}}},
	}
	opts := Options{
		Workers: 1,
		RunPoint: func(spec scenario.Spec) (*scenario.Result, error) {
			res := stubResult(spec, 10)
			if spec.Agents == 8 {
				res.AllCompleted = false
			}
			return res, nil
		},
	}
	opts.RequireCompleted = true
	if _, err := Run(sp, opts); err == nil || !strings.Contains(err.Error(), "step cap") {
		t.Errorf("capped point not surfaced as error, got %v", err)
	}
	opts.RequireCompleted = false
	res, err := Run(sp, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Points[1].AllCompleted {
		t.Error("capped point reported all_completed")
	}
}

func TestRunFit(t *testing.T) {
	t.Parallel()
	sp := Spec{
		Base: scenario.Spec{Engine: scenario.EngineBroadcast, Nodes: 1 << 16, Agents: 4, Seed: 1},
		Axes: []Axis{{Field: "agents", Values: []any{4, 16, 64}}},
		Fit:  "agents",
	}
	// Steps proportional to 1/sqrt(agents): exponent -0.5 exactly.
	res, err := Run(sp, Options{
		Workers: 1,
		RunPoint: func(spec scenario.Spec) (*scenario.Result, error) {
			return stubResult(spec, int(8192/sqrtInt(spec.Agents))), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fit == nil {
		t.Fatal("fit missing")
	}
	if res.Fit.Axis != "agents" || res.Fit.N != 3 {
		t.Errorf("fit metadata wrong: %+v", res.Fit)
	}
	if res.Fit.Alpha > -0.4 || res.Fit.Alpha < -0.6 {
		t.Errorf("fit exponent %.3f, want ≈ -0.5", res.Fit.Alpha)
	}
	if res.Fit.String() == "" {
		t.Error("empty fit rendering")
	}
}

func sqrtInt(k int) float64 {
	x := 1.0
	for i := 0; i < 64; i++ {
		x = (x + float64(k)/x) / 2
	}
	return x
}

func TestAssembleRejectsMismatch(t *testing.T) {
	t.Parallel()
	sp := Spec{
		Base: scenario.Spec{Engine: scenario.EngineBroadcast, Nodes: 256, Agents: 4, Seed: 1},
		Axes: []Axis{{Field: "agents", Values: []any{4, 8}}},
	}
	points, err := sp.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Assemble(sp, points, nil); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Assemble(sp, points, make([]*scenario.Result, len(points))); err == nil {
		t.Error("nil result accepted")
	}
}

func TestTableShape(t *testing.T) {
	t.Parallel()
	sp := Spec{
		Label: "demo sweep",
		Base:  scenario.Spec{Engine: scenario.EngineBroadcast, Nodes: 256, Agents: 4, Seed: 1, Reps: 2},
		Axes: []Axis{
			{Field: "agents", Values: []any{4, 8}},
			{Field: "mobility", Values: []any{"lazy", "ballistic"}},
		},
	}
	res, err := Run(sp, Options{
		Workers: 1,
		RunPoint: func(spec scenario.Spec) (*scenario.Result, error) {
			return stubResult(spec, 50*spec.Agents), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	table := res.Table()
	if table.Title != "demo sweep" {
		t.Errorf("table title %q", table.Title)
	}
	wantCols := []string{"agents", "mobility", "reps", "mean_steps", "stddev", "median",
		"ci95_low", "ci95_high", "all_completed", "hash"}
	if !reflect.DeepEqual(table.Columns, wantCols) {
		t.Errorf("columns = %v, want %v", table.Columns, wantCols)
	}
	if len(table.Rows) != 4 {
		t.Fatalf("got %d rows", len(table.Rows))
	}
	if table.Rows[0][0] != "4" || table.Rows[0][1] != "lazy" {
		t.Errorf("first row %v", table.Rows[0])
	}
}

func TestOnPointCallback(t *testing.T) {
	t.Parallel()
	var calls atomic.Int32
	sp := Spec{
		Base: scenario.Spec{Engine: scenario.EngineBroadcast, Nodes: 256, Agents: 4, Seed: 1},
		Axes: []Axis{{Field: "agents", Values: []any{4, 8, 16}}},
	}
	_, err := Run(sp, Options{
		RunPoint: func(spec scenario.Spec) (*scenario.Result, error) {
			return stubResult(spec, 10), nil
		},
		OnPoint: func(p Point, res *scenario.Result) {
			if res == nil || p.Hash == "" {
				panic("bad callback args")
			}
			calls.Add(1)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 3 {
		t.Errorf("OnPoint called %d times, want 3", calls.Load())
	}
}

// TestRunErrorIsNotWrappedTwice guards the error contract used by the
// service: point errors carry the point index exactly once.
func TestRunSerialMatchesParallel(t *testing.T) {
	t.Parallel()
	sp := Spec{
		Base: scenario.Spec{Engine: scenario.EngineCoverage, Nodes: 64, Agents: 4, Seed: 5, Reps: 2},
		Axes: []Axis{{Field: "agents", Values: []any{2, 4, 8}}},
	}
	serial, err := Run(sp, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(sp, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	a, err := json.Marshal(serial)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(parallel)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Error("sweep results depend on pool width")
	}
	var roundTrip Result
	if err := json.Unmarshal(a, &roundTrip); err != nil {
		t.Fatalf("sweep result does not round-trip: %v", err)
	}
	if roundTrip.Hash != serial.Hash {
		t.Error("hash lost in round trip")
	}
}

// TestRunCarriesObservedSeries: an observe block on the base scenario
// rides every expanded point — per-rep series and the across-rep aggregate
// land in each point's result, and the observe block participates in the
// point hashes (an observed sweep is a different grid from an unobserved
// one).
func TestRunCarriesObservedSeries(t *testing.T) {
	t.Parallel()
	sp := Spec{
		Base: scenario.Spec{Engine: scenario.EngineBroadcast, Nodes: 256, Agents: 4, Seed: 11, Reps: 2,
			Observe: &obs.Spec{Observables: []string{obs.Informed}, MaxPoints: 64}},
		Axes: []Axis{{Field: "agents", Values: []any{4, 8}}},
	}
	res, err := Run(sp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range res.Points {
		if len(p.Result.Series) == 0 {
			t.Errorf("point %d lost the aggregated series", i)
		}
		for ri, r := range p.Result.Reps {
			if r.Series == nil || len(r.Series.Steps) == 0 {
				t.Errorf("point %d rep %d lost its series", i, ri)
			}
		}
	}
	plain := sp
	plain.Base.Observe = nil
	h1, err := sp.Hash()
	if err != nil {
		t.Fatal(err)
	}
	h2, err := plain.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 == h2 {
		t.Error("observe block does not split the sweep hash")
	}
}
