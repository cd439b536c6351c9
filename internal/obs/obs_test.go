package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestSpecValidate(t *testing.T) {
	t.Parallel()
	ok := Spec{Observables: []string{Informed}}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Spec{
		{},                                  // no observables
		{Observables: []string{"velocity"}}, // unknown name
		{Observables: []string{Informed}, Every: -1},
		{Observables: []string{Informed}, MaxPoints: -4},
		{Observables: []string{Informed}, MaxPoints: 1}, // below the doubling floor
		{Observables: []string{Informed}, MaxPoints: 5}, // odd: compaction would leave the stride grid
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %+v validated", s)
		}
	}
}

func TestSpecCanonical(t *testing.T) {
	t.Parallel()
	s := Spec{Observables: []string{Largest, Informed, Informed}}
	c, ok, err := s.Canonical(nil)
	if err != nil || !ok {
		t.Fatalf("canonical: ok=%v err=%v", ok, err)
	}
	if !reflect.DeepEqual(c.Observables, []string{Informed, Largest}) {
		t.Errorf("observables = %v, want deduped+sorted", c.Observables)
	}
	if c.Every != 1 {
		t.Errorf("default cadence = %d, want 1", c.Every)
	}
	// The keep filter drops unsupported observables; nothing surviving
	// drops the whole block.
	c, ok, err = s.Canonical(func(n string) bool { return n == Largest })
	if err != nil || !ok || !reflect.DeepEqual(c.Observables, []string{Largest}) {
		t.Errorf("filtered canonical = %+v ok=%v err=%v", c, ok, err)
	}
	if _, ok, err := s.Canonical(func(string) bool { return false }); ok || err != nil {
		t.Errorf("empty filter: ok=%v err=%v, want dropped block", ok, err)
	}
}

func TestRecorderCadence(t *testing.T) {
	t.Parallel()
	r := NewRecorder(Spec{Observables: []string{Informed}, Every: 3})
	for tick := 0; tick <= 10; tick++ {
		if r.Wants(tick) {
			r.Record(tick, Sample{Informed: tick * 10})
		}
	}
	s := r.Series()
	if !reflect.DeepEqual(s.Steps, []int{0, 3, 6, 9}) {
		t.Errorf("steps = %v", s.Steps)
	}
	if !reflect.DeepEqual(s.Values[Informed], []float64{0, 30, 60, 90}) {
		t.Errorf("values = %v", s.Values[Informed])
	}
}

// TestRecorderStrideDoubling: hitting the MaxPoints cap halves the retained
// series and doubles the stride, so any run length fits the cap with
// uniform resolution and the t=0 sample always survives.
func TestRecorderStrideDoubling(t *testing.T) {
	t.Parallel()
	r := NewRecorder(Spec{Observables: []string{Informed}, Every: 1, MaxPoints: 4})
	for tick := 0; tick <= 100; tick++ {
		if r.Wants(tick) {
			r.Record(tick, Sample{Informed: tick})
		}
	}
	s := r.Series()
	if len(s.Steps) > 4 {
		t.Fatalf("cap exceeded: %d points", len(s.Steps))
	}
	if s.Steps[0] != 0 {
		t.Errorf("t=0 sample dropped: steps %v", s.Steps)
	}
	// Uniform stride, and it must be a power of two of the base cadence.
	stride := s.Steps[1] - s.Steps[0]
	for i := 1; i < len(s.Steps); i++ {
		if s.Steps[i]-s.Steps[i-1] != stride {
			t.Fatalf("non-uniform stride in %v", s.Steps)
		}
	}
	if stride&(stride-1) != 0 {
		t.Errorf("stride %d is not a power of two", stride)
	}
	// Values stay aligned with their steps after compaction.
	for i, st := range s.Steps {
		if s.Values[Informed][i] != float64(st) {
			t.Errorf("value at step %d = %v", st, s.Values[Informed][i])
		}
	}
}

// TestRecorderZeroAllocSteadyState pins the tentpole's allocation contract:
// once constructed (capped) or warmed (a second replicate via Reset),
// recording allocates nothing per step.
func TestRecorderZeroAllocSteadyState(t *testing.T) {
	r := NewRecorder(Spec{Observables: []string{Informed, Components, Coverage}, Every: 1, MaxPoints: 256})
	tick := 0
	allocs := testing.AllocsPerRun(10000, func() {
		if r.Wants(tick) {
			r.Record(tick, Sample{Informed: tick, Components: 3, Covered: tick, Nodes: 1024})
		}
		tick++
	})
	if allocs != 0 {
		t.Errorf("capped recorder allocates %.1f per step", allocs)
	}
	// Uncapped, reused across replicates: the second replicate's slabs are
	// already grown.
	u := NewRecorder(Spec{Observables: []string{Informed}, Every: 1})
	for i := 0; i < 5000; i++ {
		u.Record(i, Sample{Informed: i})
	}
	u.Reset()
	tick = 0
	allocs = testing.AllocsPerRun(5000, func() {
		u.Record(tick, Sample{Informed: tick})
		tick++
	})
	if allocs != 0 {
		t.Errorf("warmed uncapped recorder allocates %.1f per step", allocs)
	}
}

func TestRecorderReset(t *testing.T) {
	t.Parallel()
	r := NewRecorder(Spec{Observables: []string{Informed}, Every: 1, MaxPoints: 4})
	for i := 0; i < 32; i++ {
		if r.Wants(i) {
			r.Record(i, Sample{Informed: i})
		}
	}
	r.Reset()
	if r.Len() != 0 {
		t.Fatalf("reset recorder holds %d points", r.Len())
	}
	if !r.Wants(1) {
		t.Error("reset did not restore the base cadence")
	}
}

func TestRecorderNeeds(t *testing.T) {
	t.Parallel()
	r := NewRecorder(Spec{Observables: []string{Informed, Largest}, Every: 1})
	if !r.Needs(Informed) || !r.Needs(Largest) || r.Needs(Coverage) {
		t.Error("Needs misreports the requested observables")
	}
	if !r.NeedsComponents() {
		t.Error("Largest should imply NeedsComponents")
	}
	if r.NeedsCoverage() {
		t.Error("Coverage not requested")
	}
	c := NewRecorder(Spec{Observables: []string{Coverage}, Every: 1})
	if c.NeedsComponents() || !c.NeedsCoverage() {
		t.Error("Coverage recorder flags wrong")
	}
}

func TestSampleValues(t *testing.T) {
	t.Parallel()
	s := Sample{Informed: 7, Components: 3, Largest: 4, Covered: 256, Nodes: 1024, Met: true, Frontier: 19}
	cases := map[string]float64{
		Informed:   7,
		Components: 3,
		Largest:    4,
		Coverage:   0.25,
		Meeting:    1,
		Frontier:   19,
	}
	for name, want := range cases {
		if got := s.value(name); got != want {
			t.Errorf("value(%s) = %v, want %v", name, got, want)
		}
	}
	if got := (Sample{Met: false}).value(Meeting); got != 0 {
		t.Errorf("unmet meeting value = %v", got)
	}
	if got := (Sample{Covered: 5}).value(Coverage); got != 0 {
		t.Errorf("coverage with zero nodes = %v, want 0", got)
	}
}

func TestAggregateAcrossReplicates(t *testing.T) {
	t.Parallel()
	a := &SeriesSet{Steps: []int{0, 1, 2}, Values: map[string][]float64{Informed: {1, 2, 4}}}
	b := &SeriesSet{Steps: []int{0, 1}, Values: map[string][]float64{Informed: {1, 4}}}
	agg := Aggregate([]*SeriesSet{a, nil, b})
	if len(agg) != 1 || agg[0].Name != Informed {
		t.Fatalf("aggregate = %+v", agg)
	}
	g := agg[0]
	if !reflect.DeepEqual(g.Steps, []int{0, 1, 2}) {
		t.Fatalf("steps = %v", g.Steps)
	}
	if !reflect.DeepEqual(g.N, []int{2, 2, 1}) {
		t.Errorf("n = %v", g.N)
	}
	if !reflect.DeepEqual(g.Mean, []float64{1, 3, 4}) {
		t.Errorf("mean = %v", g.Mean)
	}
	// Step 0: both replicates saw 1, so the CI collapses onto the mean.
	if g.CILow[0] != 1 || g.CIHigh[0] != 1 {
		t.Errorf("degenerate CI = [%v, %v]", g.CILow[0], g.CIHigh[0])
	}
	// Step 1: mean 3 of {2, 4} with n=2 must use t(1) = 12.706.
	se := math.Sqrt(2) / math.Sqrt(2) // stddev sqrt(2), n 2
	wantHalf := 12.706 * se
	if math.Abs((g.CIHigh[1]-g.Mean[1])-wantHalf) > 1e-9 {
		t.Errorf("CI half-width = %v, want %v", g.CIHigh[1]-g.Mean[1], wantHalf)
	}
	// Step 2: single replicate — CI collapses, never NaN.
	if g.CILow[2] != 4 || g.CIHigh[2] != 4 {
		t.Errorf("single-rep CI = [%v, %v]", g.CILow[2], g.CIHigh[2])
	}
	if Aggregate(nil) != nil || Aggregate([]*SeriesSet{nil}) != nil {
		t.Error("empty aggregate not nil")
	}
}

func TestWriteNDJSON(t *testing.T) {
	t.Parallel()
	series := []AggSeries{{
		Name:  Informed,
		Steps: []int{0, 2},
		N:     []int{2, 2},
		Mean:  []float64{1, 3.5},
		CILow: []float64{1, 2.25}, CIHigh: []float64{1, 4.75},
	}}
	var buf bytes.Buffer
	if err := WriteNDJSON(&buf, series); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d:\n%s", len(lines), buf.String())
	}
	var p struct {
		Name   string  `json:"name"`
		Step   int     `json:"step"`
		N      int     `json:"n"`
		Mean   float64 `json:"mean"`
		CILow  float64 `json:"ci95_low"`
		CIHigh float64 `json:"ci95_high"`
	}
	if err := json.Unmarshal([]byte(lines[1]), &p); err != nil {
		t.Fatal(err)
	}
	if p.Name != Informed || p.Step != 2 || p.N != 2 || p.Mean != 3.5 || p.CILow != 2.25 || p.CIHigh != 4.75 {
		t.Errorf("decoded point %+v", p)
	}
}

func TestTable(t *testing.T) {
	t.Parallel()
	series := []AggSeries{{
		Name: Coverage, Steps: []int{0}, N: []int{3},
		Mean: []float64{0.5}, CILow: []float64{0.25}, CIHigh: []float64{0.75},
	}}
	tb := Table(series)
	var buf bytes.Buffer
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "observable,step,n,mean,ci95_low,ci95_high\ncoverage,0,3,0.5,0.25,0.75\n"
	if buf.String() != want {
		t.Errorf("table CSV:\n%s\nwant:\n%s", buf.String(), want)
	}
}

func TestKnownAndNames(t *testing.T) {
	t.Parallel()
	for _, n := range Names() {
		if !Known(n) {
			t.Errorf("Names() entry %q not Known", n)
		}
	}
	if Known("velocity") {
		t.Error("unknown observable reported known")
	}
	if !Known(Frontier) {
		t.Error("frontier not known")
	}
	if len(Names()) != 6 {
		t.Errorf("Names() = %v", Names())
	}
}

// TestSeriesSetJSONDeterministic guards the encoding the result cache
// relies on: map keys marshal sorted, so equal series sets encode to equal
// bytes.
func TestSeriesSetJSONDeterministic(t *testing.T) {
	t.Parallel()
	s := &SeriesSet{Steps: []int{0, 1}, Values: map[string][]float64{
		Largest: {1, 2}, Components: {3, 2}, Informed: {1, 4},
	}}
	first, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		again, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, again) {
			t.Fatal("SeriesSet encoding not deterministic")
		}
	}
	if !bytes.Contains(first, []byte(`"components":[3,2]`)) {
		t.Errorf("encoding: %s", first)
	}
}
