package mobilenet

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"mobilenet/internal/scenario"
)

func TestWithObservationsBroadcast(t *testing.T) {
	t.Parallel()
	nw, err := New(256, 16, WithRadius(1), WithSeed(3),
		WithObservations(Observation{Observables: []string{"informed", "coverage"}, Every: 2}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := nw.Broadcast()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("broadcast did not complete")
	}
	if res.Series == nil {
		t.Fatal("no series recorded under WithObservations")
	}
	informed := res.Series.Values["informed"]
	if len(informed) == 0 || informed[len(informed)-1] != 16 {
		t.Errorf("informed series %v does not end at k", informed)
	}
	for _, st := range res.Series.Steps {
		if st%2 != 0 {
			t.Errorf("cadence 2 recorded odd step %d", st)
		}
	}
	if len(res.Series.Values["coverage"]) != len(res.Series.Steps) {
		t.Error("coverage series not parallel to steps")
	}
}

// TestWithObservationsAllMethods: every Network simulation method records
// its engine's subset of a shared observation request.
func TestWithObservationsAllMethods(t *testing.T) {
	t.Parallel()
	nw, err := New(256, 8, WithRadius(1), WithSeed(5),
		WithObservations(Observation{Observables: ObservableNames()}))
	if err != nil {
		t.Fatal(err)
	}
	if b, err := nw.Broadcast(); err != nil || b.Series == nil {
		t.Errorf("broadcast: err=%v series=%v", err, b.Series != nil)
	}
	if g, err := nw.Gossip(); err != nil || g.Series == nil {
		t.Errorf("gossip: err=%v series=%v", err, g.Series != nil)
	} else if _, ok := g.Series.Values["coverage"]; ok {
		t.Error("gossip recorded coverage, which it cannot fill")
	}
	if f, err := nw.FrogBroadcast(); err != nil || f.Series == nil {
		t.Errorf("frog: err=%v series=%v", err, f.Series != nil)
	}
	if c, err := nw.CoverTime(); err != nil || c.Series == nil {
		t.Errorf("cover: err=%v series=%v", err, c.Series != nil)
	}
	if e, err := nw.Extinction(4); err != nil || e.Series == nil {
		t.Errorf("extinction: err=%v series=%v", err, e.Series != nil)
	}
	// Without the option, no series is recorded anywhere.
	plain, err := New(256, 8, WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if b, err := plain.Broadcast(); err != nil || b.Series != nil {
		t.Errorf("unobserved broadcast: err=%v series=%+v", err, b.Series)
	}
}

func TestWithObservationsValidation(t *testing.T) {
	t.Parallel()
	if _, err := New(256, 8, WithObservations(Observation{Observables: []string{"velocity"}})); err == nil {
		t.Error("unknown observable accepted")
	}
	if _, err := New(256, 8, WithObservations(Observation{})); err == nil {
		t.Error("empty observation accepted")
	}
}

// TestScenarioObserveRoundTrip: the public Scenario's observe block
// marshals to the same JSON as the internal spec and survives
// Parse/Canonical round trips.
func TestScenarioObserveRoundTrip(t *testing.T) {
	t.Parallel()
	sc := Scenario{Engine: "broadcast", Nodes: 256, Agents: 8, Seed: 1,
		Observe: &Observation{Observables: []string{"informed"}, Every: 4, MaxPoints: 32}}
	pub, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	internal, err := json.Marshal(sc.spec())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pub, internal) {
		t.Errorf("public and internal encodings diverge:\npublic:   %s\ninternal: %s", pub, internal)
	}
	parsed, err := ParseScenario(pub)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(parsed.Observe, sc.Observe) {
		t.Errorf("observe block did not survive the round trip: %+v", parsed.Observe)
	}
	c, err := sc.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if c.Observe == nil || c.Observe.Every != 4 {
		t.Errorf("canonical observe = %+v", c.Observe)
	}
}

// TestRunScenarioSeriesAndNDJSON: RunScenario surfaces per-rep and
// aggregated series, and WriteSeriesNDJSON matches the internal renderer
// byte for byte (the contract the CLI and service lean on).
func TestRunScenarioSeriesAndNDJSON(t *testing.T) {
	t.Parallel()
	sc := Scenario{Engine: "broadcast", Nodes: 256, Agents: 8, Radius: 1, Seed: 9, Reps: 2,
		Observe: &Observation{Observables: []string{"informed"}}}
	res, err := RunScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 1 || res.Series[0].Name != "informed" {
		t.Fatalf("series = %+v", res.Series)
	}
	for i, r := range res.Reps {
		if r.Series == nil {
			t.Fatalf("rep %d has no series", i)
		}
	}
	var pub bytes.Buffer
	if err := res.WriteSeriesNDJSON(&pub); err != nil {
		t.Fatal(err)
	}
	internal, err := scenario.Run(sc.spec())
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(internal)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("public result encoding diverges from internal:\npublic:   %s\ninternal: %s", gotJSON, wantJSON)
	}
	if pub.Len() == 0 || !strings.Contains(pub.String(), `"name":"informed"`) {
		t.Errorf("NDJSON render: %q", pub.String())
	}
}

func TestEngineObservables(t *testing.T) {
	t.Parallel()
	if got := EngineObservables("meeting"); !reflect.DeepEqual(got, []string{"meeting"}) {
		t.Errorf("meeting observables = %v", got)
	}
	if got := EngineObservables("broadcast"); !reflect.DeepEqual(got,
		[]string{"components", "coverage", "frontier", "informed", "largest_component"}) {
		t.Errorf("broadcast observables = %v", got)
	}
	if len(ObservableNames()) != 6 {
		t.Errorf("ObservableNames() = %v", ObservableNames())
	}
}
