package scenario

import (
	"encoding/json"
	"reflect"
	"testing"

	"mobilenet/internal/obs"
)

func TestObserveValidation(t *testing.T) {
	t.Parallel()
	base := Spec{Engine: EngineBroadcast, Nodes: 256, Agents: 8, Seed: 1}
	ok := base
	ok.Observe = &obs.Spec{Observables: []string{obs.Informed}, Every: 2}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := base
	bad.Observe = &obs.Spec{Observables: []string{"velocity"}}
	if err := bad.Validate(); err == nil {
		t.Error("unknown observable validated")
	}
	empty := base
	empty.Observe = &obs.Spec{}
	if err := empty.Validate(); err == nil {
		t.Error("empty observe block validated")
	}
}

// TestObserveCanonicalisation: the observe block is filtered to the
// engine's vocabulary, deduplicated, sorted and defaulted — and dropped
// entirely when nothing survives.
func TestObserveCanonicalisation(t *testing.T) {
	t.Parallel()
	s := Spec{Engine: EnginePredator, Nodes: 256, Agents: 8, Seed: 1,
		Observe: &obs.Spec{Observables: []string{obs.Largest, obs.Informed, obs.Informed}}}
	c, err := s.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	// Predator fills only "informed"; largest_component is dropped.
	if !reflect.DeepEqual(c.Observe.Observables, []string{obs.Informed}) {
		t.Errorf("canonical observables = %v", c.Observe.Observables)
	}
	if c.Observe.Every != 1 {
		t.Errorf("canonical cadence = %d, want 1", c.Observe.Every)
	}
	// The input spec's block is untouched (canonicalisation must not alias).
	if len(s.Observe.Observables) != 3 || s.Observe.Every != 0 {
		t.Errorf("input observe block mutated: %+v", s.Observe)
	}
	// Nothing survives -> block dropped.
	s.Observe = &obs.Spec{Observables: []string{obs.Meeting}}
	c, err = s.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if c.Observe != nil {
		t.Errorf("unsupported-only observe block kept: %+v", c.Observe)
	}
}

// TestObserveSplitsHash pins the §10 hash rule: observable names and
// cadence change the payload, so they must split the content hash —
// unlike execution-only knobs.
func TestObserveSplitsHash(t *testing.T) {
	t.Parallel()
	base := Spec{Engine: EngineBroadcast, Nodes: 256, Agents: 8, Seed: 1}
	plain, err := base.Hash()
	if err != nil {
		t.Fatal(err)
	}
	observed := base
	observed.Observe = &obs.Spec{Observables: []string{obs.Informed}}
	h1, err := observed.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 == plain {
		t.Error("observe block did not change the hash")
	}
	coarser := base
	coarser.Observe = &obs.Spec{Observables: []string{obs.Informed}, Every: 4}
	h2, err := coarser.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h2 == h1 {
		t.Error("cadence did not change the hash")
	}
	// Name order and duplicates do NOT split: canonicalisation normalises.
	shuffled := base
	shuffled.Observe = &obs.Spec{Observables: []string{obs.Informed, obs.Informed}, Every: 1}
	h3, err := shuffled.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h3 != h1 {
		t.Error("equivalent observe blocks hash differently")
	}
	// A block the engine's vocabulary empties is identical to no block.
	dropped := base
	dropped.Observe = &obs.Spec{Observables: []string{obs.Meeting}}
	h4, err := dropped.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h4 != plain {
		t.Error("fully filtered observe block split the hash")
	}
}

func TestObserveParseRoundTrip(t *testing.T) {
	t.Parallel()
	raw := []byte(`{"engine":"broadcast","nodes":256,"agents":8,"seed":1,
		"observe":{"observables":["informed","coverage"],"every":2,"max_points":64}}`)
	s, err := Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if s.Observe == nil || s.Observe.Every != 2 || s.Observe.MaxPoints != 64 {
		t.Fatalf("parsed observe = %+v", s.Observe)
	}
	if _, err := Parse([]byte(`{"engine":"broadcast","nodes":256,"agents":8,
		"observe":{"observables":["informed"],"stride":3}}`)); err == nil {
		t.Error("unknown observe field accepted")
	}
}

// TestRunProducesSeries drives every engine through scenario.Run with an
// observe block and checks the assembled result carries per-rep series and
// the across-rep aggregate.
func TestRunProducesSeries(t *testing.T) {
	t.Parallel()
	specs := []Spec{
		{Engine: EngineBroadcast, Nodes: 256, Agents: 8, Seed: 7, Reps: 3,
			Observe: &obs.Spec{Observables: []string{obs.Informed, obs.Components, obs.Largest, obs.Coverage}}},
		{Engine: EngineGossip, Nodes: 256, Agents: 8, Seed: 7, Reps: 2,
			Observe: &obs.Spec{Observables: []string{obs.Informed, obs.Components, obs.Largest}}},
		{Engine: EngineFrog, Nodes: 256, Agents: 8, Seed: 7,
			Observe: &obs.Spec{Observables: []string{obs.Informed, obs.Largest}}},
		{Engine: EngineCoverage, Nodes: 256, Agents: 8, Seed: 7, Reps: 2,
			Observe: &obs.Spec{Observables: []string{obs.Coverage}, Every: 4}},
		{Engine: EnginePredator, Nodes: 256, Agents: 8, Seed: 7, Preys: 4,
			Observe: &obs.Spec{Observables: []string{obs.Informed}}},
		{Engine: EngineMeeting, Radius: 6, Nodes: 1, Agents: 1, Seed: 7, Reps: 4,
			Observe: &obs.Spec{Observables: []string{obs.Meeting}}},
	}
	for _, spec := range specs {
		spec := spec
		t.Run(spec.Engine, func(t *testing.T) {
			t.Parallel()
			res, err := Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range res.Reps {
				if r.Series == nil || len(r.Series.Steps) == 0 {
					t.Fatalf("rep %d has no series", i)
				}
				if r.Series.Steps[0] != 0 && spec.Engine != EngineMeeting {
					t.Errorf("rep %d series misses t=0: %v", i, r.Series.Steps[:1])
				}
			}
			if len(res.Series) == 0 {
				t.Fatal("result has no aggregated series")
			}
			for _, s := range res.Series {
				if len(s.Steps) == 0 || len(s.Mean) != len(s.Steps) || len(s.N) != len(s.Steps) {
					t.Errorf("aggregate %s malformed: %+v", s.Name, s)
				}
			}
		})
	}
}

// TestBroadcastSeriesMonotoneToN is the acceptance shape: the informed
// series of a completed broadcast is monotone non-decreasing and ends at
// the full population k.
func TestBroadcastSeriesMonotoneToN(t *testing.T) {
	t.Parallel()
	res, err := Run(Spec{Engine: EngineBroadcast, Nodes: 256, Agents: 16, Radius: 1, Seed: 3,
		Observe: &obs.Spec{Observables: []string{obs.Informed}}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllCompleted {
		t.Fatal("broadcast did not complete")
	}
	series := res.Reps[0].Series.Values[obs.Informed]
	for i := 1; i < len(series); i++ {
		if series[i] < series[i-1] {
			t.Fatalf("informed series not monotone at %d: %v", i, series)
		}
	}
	if last := series[len(series)-1]; last != 16 {
		t.Errorf("informed series ends at %v, want 16", last)
	}
}

// TestSeriesDeterministicAcrossRuns: equal specs produce byte-identical
// encoded results, series included — the property the service cache needs.
func TestSeriesDeterministicAcrossRuns(t *testing.T) {
	t.Parallel()
	spec := Spec{Engine: EngineBroadcast, Nodes: 256, Agents: 8, Seed: 11, Reps: 2,
		Observe: &obs.Spec{Observables: []string{obs.Informed, obs.Coverage}, Every: 2, MaxPoints: 32}}
	a, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	ab, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(ab) != string(bb) {
		t.Error("observed runs of an identical spec encode differently")
	}
}

func TestObservablesVocabulary(t *testing.T) {
	t.Parallel()
	if got := Observables(EngineBroadcast); !reflect.DeepEqual(got,
		[]string{obs.Components, obs.Coverage, obs.Frontier, obs.Informed, obs.Largest}) {
		t.Errorf("broadcast vocabulary = %v", got)
	}
	if got := Observables(EngineMeeting); !reflect.DeepEqual(got, []string{obs.Meeting}) {
		t.Errorf("meeting vocabulary = %v", got)
	}
	if Observables("teleport") != nil {
		t.Error("unknown engine has a vocabulary")
	}
	// Every registered engine has a non-empty vocabulary.
	for _, e := range Engines() {
		if len(Observables(e)) == 0 {
			t.Errorf("engine %s has no observables", e)
		}
	}
}
