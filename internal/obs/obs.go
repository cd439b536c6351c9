// Package obs is the per-step observation pipeline: it turns the engines'
// terminal scalars (steps-to-completion, final coverage) into time-resolved
// series — the informed-count trajectories and component-evolution curves
// behind the paper's figures. A Spec names the observables and the sampling
// cadence; a Recorder collects the samples the step driver (internal/step)
// takes after each engine step with zero per-step allocation (slabs are
// preallocated and reused across replicates); Aggregate folds the per-replicate series into per-step
// mean/CI summaries; and WriteNDJSON / Table render the aggregate in the
// streaming and tabular forms the CLI and the simulation service emit.
//
// The package is a leaf: engines depend on it (they fill Samples), the step
// driver depends on it (it records them at the Recorder's cadence) and the
// scenario layer depends on it (the `observe` block of a spec is an
// obs.Spec), but obs itself knows nothing about any of them.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"mobilenet/internal/stats"
	"mobilenet/internal/tableio"
)

// Observable names requestable in Spec.Observables. Engines publish the
// subset they can produce; the scenario layer filters a spec's request down
// to that subset at canonicalisation time.
const (
	// Informed is the engine's primary progress count per step: informed
	// agents (broadcast), agents knowing every rumor (gossip), active
	// agents (frog), covered nodes (coverage), caught preys (predator).
	Informed = "informed"
	// Components is the number of connected components of the visibility
	// graph G_t(r).
	Components = "components"
	// Largest is the agent count of the largest visibility component.
	Largest = "largest_component"
	// Coverage is the covered fraction of the grid in [0, 1]: the informed
	// area |I(t)|/n (broadcast) or the visited-node fraction (coverage).
	Coverage = "coverage"
	// Meeting is the 0/1 indicator of whether the two walks of a Lemma 3
	// trial have met inside the lens by step t.
	Meeting = "meeting"
	// Frontier is the rightmost x-coordinate of the broadcast's informed
	// area I(t): the quantity Lemma 7 bounds the speed of.
	Frontier = "frontier"
)

// names lists every observable, sorted.
var names = []string{Components, Coverage, Frontier, Informed, Largest, Meeting}

// Names returns all observable names, sorted.
func Names() []string { return append([]string(nil), names...) }

// Known reports whether name is a defined observable.
func Known(name string) bool {
	for _, n := range names {
		if n == name {
			return true
		}
	}
	return false
}

// Spec is the `observe` block of a scenario: which observables to record
// and at what cadence. Unlike execution knobs (parallelism, label), an
// observation spec changes the result payload, so it is part of the
// scenario's canonical identity and content hash.
type Spec struct {
	// Observables names the series to record; see the observable constants.
	Observables []string `json:"observables"`
	// Every is the sampling cadence: record steps t with t % Every == 0
	// (t = 0 is always recorded). Zero selects 1, every step.
	Every int `json:"every,omitempty"`
	// MaxPoints caps the recorded point count. When a new sample would
	// exceed the cap, the recorder drops every other retained sample and
	// doubles its stride, so a run of any length fits the cap while the
	// series keeps uniform resolution. Zero means uncapped; positive
	// values must be even and at least 2 (an odd cap would compact onto a
	// grid the next sample misses, breaking the uniform stride).
	MaxPoints int `json:"max_points,omitempty"`
}

// Validate checks the spec without resolving defaults.
func (s Spec) Validate() error {
	if len(s.Observables) == 0 {
		return fmt.Errorf("obs: observe block names no observables (want %s)", strings.Join(names, "|"))
	}
	for _, n := range s.Observables {
		if !Known(n) {
			return fmt.Errorf("obs: unknown observable %q (want %s)", n, strings.Join(names, "|"))
		}
	}
	if s.Every < 0 {
		return fmt.Errorf("obs: negative cadence every=%d", s.Every)
	}
	if s.MaxPoints < 0 {
		return fmt.Errorf("obs: negative max_points %d", s.MaxPoints)
	}
	if s.MaxPoints%2 != 0 {
		return fmt.Errorf("obs: max_points must be 0 (uncapped) or an even value >= 2, got %d", s.MaxPoints)
	}
	return nil
}

// Canonical validates the spec and resolves it to canonical form: the
// observables filtered to those keep accepts, deduplicated and sorted, and
// the cadence default made explicit. It returns ok=false when no requested
// observable survives the filter, in which case the whole observe block
// should be dropped. A nil keep accepts every observable.
func (s Spec) Canonical(keep func(name string) bool) (Spec, bool, error) {
	if err := s.Validate(); err != nil {
		return Spec{}, false, err
	}
	set := map[string]bool{}
	for _, n := range s.Observables {
		if keep == nil || keep(n) {
			set[n] = true
		}
	}
	if len(set) == 0 {
		return Spec{}, false, nil
	}
	c := Spec{Every: s.Every, MaxPoints: s.MaxPoints}
	if c.Every == 0 {
		c.Every = 1
	}
	for n := range set {
		c.Observables = append(c.Observables, n)
	}
	sort.Strings(c.Observables)
	return c, true, nil
}

// Sample is one step's worth of raw engine state. Engines fill the fields
// they track and pass the sample by value, so observing allocates nothing.
type Sample struct {
	// Informed is the engine's primary progress count; see the Informed
	// observable.
	Informed int
	// Components is the visibility-component count at this step.
	Components int
	// Largest is the largest visibility component's agent count.
	Largest int
	// Covered is the covered-node count and Nodes the grid size n; the
	// Coverage observable records Covered/Nodes.
	Covered int
	// Nodes is the grid node count used to normalise Covered.
	Nodes int
	// Met is the Lemma 3 lens-meeting indicator.
	Met bool
	// Frontier is the informed area's rightmost x-coordinate.
	Frontier int
}

// value extracts one observable from the sample.
func (s Sample) value(name string) float64 {
	switch name {
	case Informed:
		return float64(s.Informed)
	case Components:
		return float64(s.Components)
	case Largest:
		return float64(s.Largest)
	case Coverage:
		if s.Nodes <= 0 {
			return 0
		}
		return float64(s.Covered) / float64(s.Nodes)
	case Meeting:
		if s.Met {
			return 1
		}
		return 0
	case Frontier:
		return float64(s.Frontier)
	}
	return 0
}

// defaultCap is the initial slab capacity of an uncapped recorder; capped
// recorders preallocate exactly MaxPoints so the step loop never grows a
// slice.
const defaultCap = 1024

// Recorder collects per-step samples for one replicate. It is created once
// per replicate (or reused across replicates via Reset), preallocates its
// slabs up front, and performs no allocation per recorded step. It is not
// safe for concurrent use; every replicate gets its own.
type Recorder struct {
	spec  Spec // canonical: non-empty observables, Every >= 1
	every int  // current stride; doubles when MaxPoints overflows

	needComponents bool
	needCoverage   bool

	steps  []int
	values [][]float64 // values[i] parallels spec.Observables[i]
}

// NewRecorder builds a recorder for a canonical spec (see Spec.Canonical).
// The slabs are preallocated: MaxPoints entries when capped, a generous
// default otherwise.
func NewRecorder(spec Spec) *Recorder {
	if spec.Every < 1 {
		spec.Every = 1
	}
	capacity := spec.MaxPoints
	if capacity <= 0 {
		capacity = defaultCap
	}
	r := &Recorder{
		spec:   spec,
		every:  spec.Every,
		steps:  make([]int, 0, capacity),
		values: make([][]float64, len(spec.Observables)),
	}
	for i := range r.values {
		r.values[i] = make([]float64, 0, capacity)
	}
	for _, n := range spec.Observables {
		switch n {
		case Components, Largest:
			r.needComponents = true
		case Coverage:
			r.needCoverage = true
		}
	}
	return r
}

// Reset clears the recorded samples and restores the base cadence, keeping
// the slabs so a recorder reused across replicates allocates nothing after
// the first.
func (r *Recorder) Reset() {
	r.every = r.spec.Every
	r.steps = r.steps[:0]
	for i := range r.values {
		r.values[i] = r.values[i][:0]
	}
}

// Needs reports whether the recorder records the named observable. Engines
// use it to avoid computing state no requested observable consumes.
func (r *Recorder) Needs(name string) bool {
	for _, n := range r.spec.Observables {
		if n == name {
			return true
		}
	}
	return false
}

// NeedsComponents reports whether any requested observable requires
// labelling the visibility components this step (Components or Largest).
func (r *Recorder) NeedsComponents() bool { return r.needComponents }

// NeedsCoverage reports whether the Coverage observable was requested, so
// engines know to track the informed/visited area.
func (r *Recorder) NeedsCoverage() bool { return r.needCoverage }

// Wants reports whether step t falls on the current sampling cadence. The
// step driver gates its Record calls — and so the engines' observable-only
// work in Sample — behind it.
func (r *Recorder) Wants(t int) bool { return t%r.every == 0 }

// Record appends one sample. When the recorder is at its MaxPoints cap it
// first halves the retained series in place (keeping every other sample)
// and doubles the stride, so the series always spans the whole run at
// uniform resolution. Capped recorders never allocate here (their slabs
// are sized exactly); uncapped recorders allocate only on the amortised
// geometric slab growths past the preallocated default, and not at all
// once reused (Reset keeps the grown slabs).
func (r *Recorder) Record(t int, s Sample) {
	if r.spec.MaxPoints > 0 && len(r.steps) >= r.spec.MaxPoints {
		r.compact()
	}
	r.steps = append(r.steps, t)
	for i, n := range r.spec.Observables {
		r.values[i] = append(r.values[i], s.value(n))
	}
}

// compact drops every other retained sample in place and doubles the
// stride.
func (r *Recorder) compact() {
	n := len(r.steps)
	kept := 0
	for i := 0; i < n; i += 2 {
		r.steps[kept] = r.steps[i]
		for vi := range r.values {
			r.values[vi][kept] = r.values[vi][i]
		}
		kept++
	}
	r.steps = r.steps[:kept]
	for vi := range r.values {
		r.values[vi] = r.values[vi][:kept]
	}
	r.every *= 2
}

// Len returns the number of recorded samples.
func (r *Recorder) Len() int { return len(r.steps) }

// Series copies the recorded samples out into a SeriesSet. It is called
// once per replicate, after the run; the recorder stays reusable.
func (r *Recorder) Series() *SeriesSet {
	out := &SeriesSet{
		Steps:  append([]int(nil), r.steps...),
		Values: make(map[string][]float64, len(r.spec.Observables)),
	}
	for i, n := range r.spec.Observables {
		out.Values[n] = append([]float64(nil), r.values[i]...)
	}
	return out
}

// SeriesSet is one replicate's recorded time series: the sampled steps and,
// per observable, the values at those steps (parallel to Steps). Map keys
// marshal sorted, so the JSON encoding is deterministic.
type SeriesSet struct {
	// Steps lists the sampled step indices, ascending.
	Steps []int `json:"steps"`
	// Values holds one value series per observable, parallel to Steps.
	Values map[string][]float64 `json:"values"`
}

// AggSeries is one observable's aggregate across replicates: at every step
// sampled by at least one replicate, the mean and the Student-t 95%
// confidence interval over the replicates that sampled it. The arrays are
// parallel.
type AggSeries struct {
	// Name is the observable.
	Name string `json:"name"`
	// Steps lists the aggregated step indices, ascending.
	Steps []int `json:"steps"`
	// N is the number of replicates contributing at each step.
	N []int `json:"n"`
	// Mean is the across-replicate mean at each step.
	Mean []float64 `json:"mean"`
	// CILow and CIHigh bound the Student-t 95% confidence interval of the
	// mean at each step (equal to Mean when only one replicate
	// contributed).
	CILow  []float64 `json:"ci95_low"`
	CIHigh []float64 `json:"ci95_high"`
}

// Aggregate folds per-replicate series into one AggSeries per observable,
// sorted by observable name. Replicates may have sampled different step
// grids (runs of different lengths downsample at different strides): every
// step sampled by at least one replicate appears, aggregated over the
// replicates that sampled it. Nil sets are skipped, so callers can pass a
// replicate slice with gaps.
func Aggregate(sets []*SeriesSet) []AggSeries {
	live := make([]*SeriesSet, 0, len(sets))
	nameSet := map[string]bool{}
	for _, s := range sets {
		if s == nil {
			continue
		}
		live = append(live, s)
		for n := range s.Values {
			nameSet[n] = true
		}
	}
	if len(nameSet) == 0 {
		return nil
	}
	obsNames := make([]string, 0, len(nameSet))
	for n := range nameSet {
		obsNames = append(obsNames, n)
	}
	sort.Strings(obsNames)

	// Every Steps slice is sorted ascending, so a k-way merge with one
	// cursor per replicate visits the union of steps in order with
	// sequential access and no per-step index structures.
	out := make([]AggSeries, len(obsNames))
	for i, name := range obsNames {
		out[i].Name = name
	}
	idx := make([]int, len(live))
	for {
		step, any := 0, false
		for si, s := range live {
			if idx[si] < len(s.Steps) && (!any || s.Steps[idx[si]] < step) {
				step, any = s.Steps[idx[si]], true
			}
		}
		if !any {
			return out
		}
		for ni, name := range obsNames {
			var w stats.Welford
			for si, s := range live {
				if idx[si] >= len(s.Steps) || s.Steps[idx[si]] != step {
					continue
				}
				if vals, ok := s.Values[name]; ok {
					w.Add(vals[idx[si]])
				}
			}
			if w.N() == 0 {
				continue
			}
			half := stats.TCritical95(w.N()) * w.StdErr()
			agg := &out[ni]
			agg.Steps = append(agg.Steps, step)
			agg.N = append(agg.N, w.N())
			agg.Mean = append(agg.Mean, w.Mean())
			agg.CILow = append(agg.CILow, w.Mean()-half)
			agg.CIHigh = append(agg.CIHigh, w.Mean()+half)
		}
		for si, s := range live {
			if idx[si] < len(s.Steps) && s.Steps[idx[si]] == step {
				idx[si]++
			}
		}
	}
}

// point is the NDJSON line shape: one aggregated sample of one observable.
type point struct {
	Name   string  `json:"name"`
	Step   int     `json:"step"`
	N      int     `json:"n"`
	Mean   float64 `json:"mean"`
	CILow  float64 `json:"ci95_low"`
	CIHigh float64 `json:"ci95_high"`
}

// WriteNDJSON streams an aggregate as newline-delimited JSON, one object
// per (observable, step) sample, observables in series order and steps
// ascending within each. This is THE canonical series wire encoding: the
// library, `mobisim -series-out -` and the service's
// /v1/results/{hash}/series endpoint all emit exactly these bytes for the
// same scenario, which is what the byte-identity pins test.
func WriteNDJSON(w io.Writer, series []AggSeries) error {
	for _, s := range series {
		for i := range s.Steps {
			p := point{Name: s.Name, Step: s.Steps[i], N: s.N[i],
				Mean: s.Mean[i], CILow: s.CILow[i], CIHigh: s.CIHigh[i]}
			line, err := json.Marshal(p)
			if err != nil {
				return err
			}
			line = append(line, '\n')
			if _, err := w.Write(line); err != nil {
				return err
			}
		}
	}
	return nil
}

// Table renders an aggregate as a rectangular table — one row per
// (observable, step) sample — for CSV/JSON export via internal/tableio.
func Table(series []AggSeries) *tableio.Table {
	t := tableio.NewTable("", "observable", "step", "n", "mean", "ci95_low", "ci95_high")
	for _, s := range series {
		for i := range s.Steps {
			t.AddRow(s.Name, s.Steps[i], s.N[i], s.Mean[i], s.CILow[i], s.CIHigh[i])
		}
	}
	return t
}
