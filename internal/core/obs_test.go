package core

import (
	"testing"

	"mobilenet/internal/grid"
	"mobilenet/internal/obs"
	"mobilenet/internal/prof"
	"mobilenet/internal/step"
)

// observedBroadcast builds a step driver over a broadcast with every
// broadcast observable enabled and the recorder capped, for the allocation
// pins below.
func observedBroadcast(tb testing.TB, k int) (*step.Driver, *obs.Recorder) {
	tb.Helper()
	rec := obs.NewRecorder(obs.Spec{
		Observables: []string{obs.Informed, obs.Components, obs.Largest, obs.Coverage},
		Every:       1,
		MaxPoints:   512,
	})
	cfg := Config{
		Grid:        grid.MustNew(64),
		K:           k,
		Radius:      1,
		Seed:        7,
		Source:      0,
		Parallelism: 1,
	}
	b, err := NewBroadcast(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return step.New(b, step.Hooks{Cap: cfg.StepCap(), Observe: rec}), rec
}

// TestObservedStepNoAllocs pins the tentpole's acceptance criterion: with
// observation enabled (all four broadcast observables, cadence 1), a full
// steady-state driver step — engine step, sample and record — performs
// zero allocations.
func TestObservedStepNoAllocs(t *testing.T) {
	d, _ := observedBroadcast(t, 64)
	// Warm up: grow the labeller and scratch slabs to steady state.
	for i := 0; i < 64; i++ {
		if !d.Next() {
			t.Fatal("broadcast finished during warm-up")
		}
	}
	stepped := true
	allocs := testing.AllocsPerRun(256, func() { stepped = d.Next() && stepped })
	if !stepped {
		t.Fatal("broadcast finished inside the measured window, so not every run was a step")
	}
	if allocs != 0 {
		t.Errorf("observed broadcast step allocates %.2f per step, want 0", allocs)
	}
}

// TestObservedBroadcastSeries sanity-checks the recorded series shape on a
// full run: informed is monotone non-decreasing from 1 and the coverage
// fraction stays within [0, 1].
func TestObservedBroadcastSeries(t *testing.T) {
	t.Parallel()
	d, rec := observedBroadcast(t, 32)
	for d.Next() {
	}
	if !d.Result().Completed {
		t.Fatal("broadcast did not complete")
	}
	s := rec.Series()
	informed := s.Values[obs.Informed]
	if len(informed) == 0 || informed[0] < 1 {
		t.Fatalf("informed series %v", informed)
	}
	for i := 1; i < len(informed); i++ {
		if informed[i] < informed[i-1] {
			t.Fatalf("informed series not monotone at %d: %v", i, informed)
		}
	}
	for _, c := range s.Values[obs.Coverage] {
		if c < 0 || c > 1 {
			t.Fatalf("coverage fraction %v out of range", c)
		}
	}
	for i, largest := range s.Values[obs.Largest] {
		if comps := s.Values[obs.Components][i]; largest < 1 || comps < 1 {
			t.Fatalf("component observables empty at sample %d: largest=%v comps=%v", i, largest, comps)
		}
	}
}

// TestCoverageObservableKeepsRunSemantics is the regression test for the
// continuation leak: observing the coverage fraction allocates the
// informed-area bitset, but must not switch the run into the
// coverage-continuation phase or report a CoverageSteps the config never
// requested.
func TestCoverageObservableKeepsRunSemantics(t *testing.T) {
	t.Parallel()
	cfg := Config{Grid: grid.MustNew(32), K: 8, Radius: 1, Seed: 5, Source: 0, Parallelism: 1}
	plain, err := RunBroadcast(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBroadcast(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder(obs.Spec{Observables: []string{obs.Coverage}, Every: 1})
	step.Run(b, step.Hooks{Cap: cfg.StepCap(), Observe: rec})
	got := b.Result()
	if got.Steps != plain.Steps || got.Completed != plain.Completed {
		t.Errorf("observed run diverged: steps %d vs %d", got.Steps, plain.Steps)
	}
	if got.CoverageSteps != -1 {
		t.Errorf("coverage observable leaked CoverageSteps = %d, want -1", got.CoverageSteps)
	}
	if cov := rec.Series().Values[obs.Coverage]; len(cov) == 0 || cov[0] <= 0 {
		t.Errorf("coverage series %v does not start from the source's node", cov)
	}
}

// warmDriver builds a driver and advances it past the slab-growing first
// steps.
func warmDriver(build func() *step.Driver) *step.Driver {
	d := build()
	for i := 0; i < 64; i++ {
		d.Next()
	}
	return d
}

// benchDriverSteps times b.N full driver steps. A run that finishes is
// rebuilt and warmed with the timer stopped, so every timed iteration is
// one step and allocations outside steady state stay out of the report.
func benchDriverSteps(b *testing.B, build func() *step.Driver) {
	d := warmDriver(build)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for !d.Next() {
			b.StopTimer()
			d = warmDriver(build)
			b.StartTimer()
		}
	}
}

// BenchmarkObservedBroadcastStep measures the per-step cost of the fully
// observed driver step; run with -benchmem to see the zero-allocation
// contract in the report.
func BenchmarkObservedBroadcastStep(b *testing.B) {
	benchDriverSteps(b, func() *step.Driver {
		d, _ := observedBroadcast(b, 256)
		return d
	})
}

// unobservedBroadcast builds the unobserved driver the two benchmarks below
// time. A non-nil p profiles it the way the scenario runner does: the
// engine (Config.Profile) and the driver (Hooks.Profile) share the one
// StepProfile, so its laps tile every step.
func unobservedBroadcast(b *testing.B, p *prof.StepProfile) *step.Driver {
	cfg := Config{Grid: grid.MustNew(64), K: 256, Radius: 1, Seed: 7, Source: 0, Parallelism: 1, Profile: p}
	br, err := NewBroadcast(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return step.New(br, step.Hooks{Cap: cfg.StepCap(), Profile: p})
}

// BenchmarkBroadcastStepBaseline is the unobserved twin of the benchmark
// above, so the observation overhead is a one-line comparison.
func BenchmarkBroadcastStepBaseline(b *testing.B) {
	benchDriverSteps(b, func() *step.Driver { return unobservedBroadcast(b, nil) })
}

// BenchmarkProfiledBroadcastStep is the baseline under the step-phase
// profiler the service attaches to every replicate, so the profiler's
// per-step cost (its clock reads) is a one-line comparison too; it must
// report 0 allocs/op like the baseline.
func BenchmarkProfiledBroadcastStep(b *testing.B) {
	benchDriverSteps(b, func() *step.Driver { return unobservedBroadcast(b, new(prof.StepProfile)) })
}
