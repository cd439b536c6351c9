package mobilenet

import (
	"fmt"
	"io"

	"mobilenet/internal/obs"
	"mobilenet/internal/scenario"
	"mobilenet/internal/step"
)

// Observation requests per-step time-series observables from a simulation:
// which series to record, how often, and an optional point cap. It is the
// public mirror of a scenario's `observe` block and marshals to the same
// JSON. Unlike execution-only knobs, an observation changes the result
// payload, so it is part of the scenario content hash: two scenarios that
// differ only in their observation are different simulations.
type Observation struct {
	// Observables names the series to record; see ObservableNames for the
	// vocabulary ("informed", "components", "largest_component",
	// "coverage", "frontier", "meeting"). Engines record the subset they
	// can produce.
	Observables []string `json:"observables"`
	// Every is the sampling cadence: record steps t with t % Every == 0
	// (t=0 always included). Zero selects every step.
	Every int `json:"every,omitempty"`
	// MaxPoints caps the recorded points per replicate: when a new sample
	// would exceed it, every other retained sample is dropped and the
	// stride doubles, so runs of any length fit at uniform resolution.
	// Zero means uncapped; positive values must be even and at least 2.
	MaxPoints int `json:"max_points,omitempty"`
}

// spec converts the public Observation to the internal observe block.
func (o Observation) spec() *obs.Spec {
	return &obs.Spec{Observables: o.Observables, Every: o.Every, MaxPoints: o.MaxPoints}
}

// fromObsSpec mirrors an internal observe block back to the public type.
func fromObsSpec(s *obs.Spec) *Observation {
	if s == nil {
		return nil
	}
	return &Observation{Observables: s.Observables, Every: s.Every, MaxPoints: s.MaxPoints}
}

// ObservableNames returns every defined observable name, sorted.
func ObservableNames() []string { return obs.Names() }

// EngineObservables returns the observables the named engine can record,
// sorted; nil for unknown engines.
func EngineObservables(engine string) []string { return scenario.Observables(engine) }

// WithObservations makes every simulation the Network runs record the
// requested per-step series; the engine-specific subset of the observables
// is recorded (e.g. Broadcast fills "informed" and the component series,
// CoverTime fills "coverage") and returned in the result's Series field.
// Observation costs no per-step allocation.
func WithObservations(o Observation) Option {
	return func(opt *options) error {
		if err := o.spec().Validate(); err != nil {
			return fmt.Errorf("mobilenet: %w", err)
		}
		opt.observe = o.spec()
		return nil
	}
}

// RepSeries is one replicate's recorded time series: the sampled steps
// and, per observable, the values at those steps (parallel to Steps).
type RepSeries struct {
	// Steps lists the sampled step indices, ascending.
	Steps []int `json:"steps"`
	// Values holds one value series per recorded observable.
	Values map[string][]float64 `json:"values"`
}

// fromSeriesSet mirrors an internal series set to the public type.
func fromSeriesSet(s *obs.SeriesSet) *RepSeries {
	if s == nil {
		return nil
	}
	return &RepSeries{Steps: s.Steps, Values: s.Values}
}

// Series is one observable's aggregate across a scenario's replicates: at
// every step sampled by at least one replicate, the across-replicate mean
// and Student-t 95% confidence interval. The arrays are parallel.
type Series struct {
	// Name is the observable.
	Name string `json:"name"`
	// Steps lists the aggregated step indices, ascending.
	Steps []int `json:"steps"`
	// N counts the replicates contributing at each step.
	N []int `json:"n"`
	// Mean is the across-replicate mean at each step.
	Mean []float64 `json:"mean"`
	// CILow and CIHigh bound the Student-t 95% confidence interval of the
	// mean at each step.
	CILow  []float64 `json:"ci95_low"`
	CIHigh []float64 `json:"ci95_high"`
}

// fromAggSeries mirrors internal aggregates to the public type.
func fromAggSeries(in []obs.AggSeries) []Series {
	if in == nil {
		return nil
	}
	out := make([]Series, len(in))
	for i, s := range in {
		out[i] = Series{Name: s.Name, Steps: s.Steps, N: s.N,
			Mean: s.Mean, CILow: s.CILow, CIHigh: s.CIHigh}
	}
	return out
}

// toAggSeries converts public aggregates back to the internal type (the
// NDJSON renderer's input).
func toAggSeries(in []Series) []obs.AggSeries {
	out := make([]obs.AggSeries, len(in))
	for i, s := range in {
		out[i] = obs.AggSeries{Name: s.Name, Steps: s.Steps, N: s.N,
			Mean: s.Mean, CILow: s.CILow, CIHigh: s.CIHigh}
	}
	return out
}

// WriteSeriesNDJSON streams the result's aggregated series as
// newline-delimited JSON, one object per (observable, step) sample. This
// is the canonical series wire encoding: `mobisim -series-out -` and the
// mobiserved GET /v1/results/{hash}/series endpoint emit exactly these
// bytes for the same scenario.
func (r *ScenarioResult) WriteSeriesNDJSON(w io.Writer) error {
	return obs.WriteNDJSON(w, toAggSeries(r.Series))
}

// WriteSeriesCSV renders the aggregated series as a rectangular CSV table
// — one row per (observable, step) sample — the form `mobisim -series-out
// file.csv` exports.
func (r *ScenarioResult) WriteSeriesCSV(w io.Writer) error {
	return obs.Table(toAggSeries(r.Series)).WriteCSV(w)
}

// WriteSeriesTableJSON renders the aggregated series as the tabular JSON
// object ({columns, rows}, cells as rendered strings) the CSV form mirrors
// — the `mobisim -series-out file.json` export.
func (r *ScenarioResult) WriteSeriesTableJSON(w io.Writer) error {
	return obs.Table(toAggSeries(r.Series)).WriteJSON(w)
}

// drive runs a freshly built engine through the step driver under the
// given step cap, recording the Network's observation request; it returns
// the recorded series, nil when the engine observes nothing.
func (nw *Network) drive(e step.Engine, stepCap int, engine string) *RepSeries {
	rec := nw.recorder(engine)
	step.Run(e, step.Hooks{Cap: stepCap, Observe: rec})
	if rec == nil {
		return nil
	}
	return fromSeriesSet(rec.Series())
}

// recorder builds the Network's observation recorder for one engine, or
// nil when no observation was requested or the engine records none of the
// requested observables.
func (nw *Network) recorder(engine string) *obs.Recorder {
	if nw.opt.observe == nil {
		return nil
	}
	vocab := map[string]bool{}
	for _, n := range scenario.Observables(engine) {
		vocab[n] = true
	}
	spec, ok, err := nw.opt.observe.Canonical(func(n string) bool { return vocab[n] })
	if err != nil || !ok {
		// Validation ran in WithObservations; an empty filter result just
		// means this engine records nothing.
		return nil
	}
	return obs.NewRecorder(spec)
}
