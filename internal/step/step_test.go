package step

import (
	"context"
	"reflect"
	"testing"

	"mobilenet/internal/cancel"
	"mobilenet/internal/obs"
	"mobilenet/internal/prof"
)

// counter is a minimal engine: time advances by one per step and the run
// is done at doneAt (never when negative). It samples its own time as the
// informed count, so a recorded series shows exactly which steps were
// sampled.
type counter struct {
	t, doneAt int
}

func (c *counter) Step()                           { c.t++ }
func (c *counter) Done() bool                      { return c.doneAt >= 0 && c.t >= c.doneAt }
func (c *counter) Time() int                       { return c.t }
func (c *counter) Sample(*obs.Recorder) obs.Sample { return obs.Sample{Informed: c.t} }

// event is a counter whose end event is its observable.
type event struct{ counter }

func (*event) SampleEnd() bool { return true }

func recorder(every, maxPoints int) *obs.Recorder {
	return obs.NewRecorder(obs.Spec{Observables: []string{obs.Informed}, Every: every, MaxPoints: maxPoints})
}

func TestRunStopsAtCapOrDone(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name   string
		doneAt int
		cap    int
		want   Result
	}{
		{"capped", -1, 10, Result{Steps: 10}},
		{"done before cap", 4, 10, Result{Steps: 4, Completed: true}},
		{"done at cap", 10, 10, Result{Steps: 10, Completed: true}},
		{"done at time 0", 0, 10, Result{Steps: 0, Completed: true}},
		{"zero cap", -1, 0, Result{Steps: 0}},
	}
	for _, tc := range cases {
		c := &counter{doneAt: tc.doneAt}
		if got := Run(c, Hooks{Cap: tc.cap}); got != tc.want {
			t.Errorf("%s: Run = %+v, want %+v", tc.name, got, tc.want)
		}
	}
}

// TestNextStepsOneTick: Next advances exactly one step per call while the
// run is live, then reports false without touching the engine.
func TestNextStepsOneTick(t *testing.T) {
	t.Parallel()
	c := &counter{doneAt: 3}
	d := New(c, Hooks{Cap: 10})
	for want := 1; want <= 3; want++ {
		if !d.Next() || c.t != want {
			t.Fatalf("Next %d: engine at t=%d", want, c.t)
		}
	}
	if d.Next() || d.Next() || c.t != 3 {
		t.Fatalf("Next stepped a done engine to t=%d", c.t)
	}
	if got := d.Result(); got != (Result{Steps: 3, Completed: true}) {
		t.Errorf("Result = %+v", got)
	}
}

// TestCadenceRecordsTimeZeroAndCadence: time 0 is always sampled, later
// steps only on the cadence, so a run that stops off the cadence ends its
// series below its final step.
func TestCadenceRecordsTimeZeroAndCadence(t *testing.T) {
	t.Parallel()
	rec := recorder(3, 0)
	Run(&counter{doneAt: 7}, Hooks{Cap: 100, Observe: rec})
	if got, want := rec.Series().Steps, []int{0, 3, 6}; !reflect.DeepEqual(got, want) {
		t.Errorf("sampled steps %v, want %v", got, want)
	}
}

// TestTerminalEngineRecordsEnd: a Terminal engine's finishing step is
// recorded off the cadence; a capped (unfinished) run is not.
func TestTerminalEngineRecordsEnd(t *testing.T) {
	t.Parallel()
	rec := recorder(3, 0)
	Run(&event{counter{doneAt: 7}}, Hooks{Cap: 100, Observe: rec})
	if got, want := rec.Series().Steps, []int{0, 3, 6, 7}; !reflect.DeepEqual(got, want) {
		t.Errorf("finished run sampled %v, want %v", got, want)
	}
	rec = recorder(3, 0)
	Run(&event{counter{doneAt: -1}}, Hooks{Cap: 8, Observe: rec})
	if got, want := rec.Series().Steps, []int{0, 3, 6}; !reflect.DeepEqual(got, want) {
		t.Errorf("capped run sampled %v, want %v", got, want)
	}
}

// TestCancelStopsAtStepBoundary: the cancellation check is polled before
// every step; once it observes the cancelled context the run ends there
// and reports Cancelled.
func TestCancelStopsAtStepBoundary(t *testing.T) {
	t.Parallel()
	ctx, stop := context.WithCancel(context.Background())
	stop()
	c := &counter{doneAt: -1}
	// A check polling every 4 calls stops on the 4th, after 3 steps.
	got := Run(c, Hooks{Cap: 100, Cancel: cancel.New(ctx, 4)})
	if want := (Result{Steps: 3, Cancelled: true}); got != want {
		t.Errorf("Run = %+v, want %+v", got, want)
	}
	// A finished run is never reported cancelled.
	if got := Run(&counter{doneAt: 2}, Hooks{Cap: 100, Cancel: cancel.New(ctx, 4)}); got.Cancelled {
		t.Errorf("finished run reported cancelled: %+v", got)
	}
}

// TestProfileOwnsStepBoundary: the driver counts every step and charges
// the observe phase, time 0 included.
func TestProfileOwnsStepBoundary(t *testing.T) {
	t.Parallel()
	p := &prof.StepProfile{}
	p.Mark()
	Run(&counter{doneAt: 5}, Hooks{Cap: 100, Observe: recorder(1, 0), Profile: p})
	if p.Steps() != 5 {
		t.Errorf("profile counted %d steps, want 5", p.Steps())
	}
	if p.PhaseTotal(prof.Observe) <= 0 {
		t.Error("observe phase never charged")
	}
	if p.PhaseTotal(prof.Move) != 0 {
		t.Error("driver charged an engine phase")
	}
}

// TestObservedNextNoAllocs: a driver step with a capped recorder, a
// profile and a live cancellation check allocates nothing.
func TestObservedNextNoAllocs(t *testing.T) {
	p := &prof.StepProfile{}
	p.Mark()
	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	d := New(&counter{doneAt: -1}, Hooks{Cap: 1 << 30, Observe: recorder(1, 64), Profile: p,
		Cancel: cancel.New(ctx, 0)})
	for i := 0; i < 128; i++ {
		d.Next()
	}
	if allocs := testing.AllocsPerRun(1000, func() { d.Next() }); allocs != 0 {
		t.Errorf("driver step allocates %.2f per step, want 0", allocs)
	}
}
