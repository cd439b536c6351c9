// Package step is the one step loop every engine runs under.
//
// All six engines simulate the paper's one process: agents take a walk
// step, the visibility graph G_t(r) is relabelled, something spreads
// through each component, and this repeats until done. They differ only in
// what spreads per contact. So an engine is a state machine — construction
// performs the time-0 exchange, Step advances one time unit, Done and Time
// report progress, Sample fills an obs.Sample — and a Driver owns
// everything around the step:
//
//   - the step cap;
//   - the amortised cancellation poll (cancel.Check);
//   - the profiler's step boundary: Mark, the observe lap, StepDone;
//   - the observation cadence, including time 0 and the terminal step of
//     engines whose end event is the observable (Terminal).
//
// The package is a leaf below the engines — it imports only obs, prof and
// cancel — so the engines' one-shot runs, the scenario layer and the CLI
// all share this loop. Callers that need state after every step advance
// the driver one tick at a time (for d.Next() { ... }) instead of keeping a
// loop of their own.
package step

import (
	"mobilenet/internal/cancel"
	"mobilenet/internal/obs"
	"mobilenet/internal/prof"
)

// Engine is one simulation run as a state machine. Construction performs
// the time-0 exchange (and marks the profiler before it, so the exchange
// is charged like a step); the driver never steps an engine that reports
// Done.
type Engine interface {
	// Step advances the simulation one time unit. The engine laps its own
	// inner phases (move, index, label, spread) on the profiler it was
	// built with; the driver marks the step boundary and laps observe.
	Step()
	// Done reports whether the run has reached its end condition.
	Done() bool
	// Time returns the current simulation time: 0 after construction, one
	// more after every Step.
	Time() int
	// Sample returns the observables of the current step. rec is the
	// recorder the sample goes to; engines consult its Needs methods to
	// skip state no requested observable reads.
	Sample(rec *obs.Recorder) obs.Sample
}

// Terminal is implemented by engines whose end event is itself the
// observable — the meeting trial's lens meeting. When SampleEnd reports
// true, the driver records the step on which the engine becomes done even
// if the cadence skips it, so the series ends on the event it measures.
// Every other engine is sampled on the cadence only: a coarse series may
// end below the terminal value, which the run's scalars report.
type Terminal interface {
	SampleEnd() bool
}

// Hooks are the cross-cutting concerns a Driver owns. The zero value of
// every field but Cap is inert.
type Hooks struct {
	// Cap is the step cap: the driver never steps past time Cap.
	Cap int
	// Observe, when non-nil, receives a sample at time 0 and after every
	// step on its cadence. A capped recorder allocates nothing per step.
	Observe *obs.Recorder
	// Profile, when non-nil, is charged the observe phase and counts the
	// steps. It must be the profiler the engine was built with, whose
	// inner laps tile the rest of the step.
	Profile *prof.StepProfile
	// Cancel, when non-nil, is polled (amortised, see internal/cancel)
	// before every step; once it stops, the run ends at that boundary.
	Cancel *cancel.Check
}

// Result reports how a run stood when it stopped.
type Result struct {
	// Steps is the engine's time when the run stopped.
	Steps int
	// Completed reports whether the engine was done.
	Completed bool
	// Cancelled reports whether the cancellation check ended the run.
	// A cancelled run's state is partial.
	Cancelled bool
}

// Driver steps one engine under its hooks.
type Driver struct {
	e         Engine
	h         Hooks
	sampleEnd bool
}

// New wraps a freshly constructed engine and records its time-0 sample.
func New(e Engine, h Hooks) *Driver {
	d := &Driver{e: e, h: h}
	if t, ok := e.(Terminal); ok {
		d.sampleEnd = t.SampleEnd()
	}
	d.observe()
	return d
}

// Next advances the engine one step unless it is done, at the cap or
// cancelled, and reports whether it stepped.
func (d *Driver) Next() bool {
	if d.e.Done() || d.e.Time() >= d.h.Cap || d.h.Cancel.Stop() {
		return false
	}
	d.h.Profile.Mark()
	d.e.Step()
	d.observe()
	d.h.Profile.StepDone()
	return true
}

// observe records the current step when the cadence (or a Terminal
// engine's end) asks for it, then laps the observe phase.
func (d *Driver) observe() {
	if rec := d.h.Observe; rec != nil {
		t := d.e.Time()
		if rec.Wants(t) || (d.sampleEnd && d.e.Done()) {
			rec.Record(t, d.e.Sample(rec))
		}
	}
	d.h.Profile.Lap(prof.Observe)
}

// Result reports how the run stands.
func (d *Driver) Result() Result {
	return Result{Steps: d.e.Time(), Completed: d.e.Done(), Cancelled: d.h.Cancel.Stopped()}
}

// Run drives e until it is done, reaches the cap or is cancelled.
func Run(e Engine, h Hooks) Result {
	d := New(e, h)
	for d.Next() {
	}
	return d.Result()
}
