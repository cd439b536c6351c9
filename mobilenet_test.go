package mobilenet

import (
	"math"
	"testing"
)

func TestNewValidation(t *testing.T) {
	t.Parallel()
	if _, err := New(0, 4); err == nil {
		t.Error("nodes=0 accepted")
	}
	if _, err := New(100, 0); err == nil {
		t.Error("agents=0 accepted")
	}
	if _, err := New(100, 4, WithRadius(-1)); err == nil {
		t.Error("negative radius accepted")
	}
	if _, err := New(100, 4, WithMaxSteps(-1)); err == nil {
		t.Error("negative cap accepted")
	}
	if _, err := New(100, 4, WithSource(-5)); err == nil {
		t.Error("invalid source accepted")
	}
	if _, err := New(100, 4, WithSource(4)); err == nil {
		t.Error("out-of-range source accepted")
	}
	if _, err := New(100, 4, WithSource(RandomSource)); err != nil {
		t.Errorf("RandomSource rejected: %v", err)
	}
}

func TestNewRoundsUpToSquare(t *testing.T) {
	t.Parallel()
	nw, err := New(100, 8)
	if err != nil {
		t.Fatal(err)
	}
	if nw.Nodes() != 100 || nw.Side() != 10 {
		t.Errorf("Nodes=%d Side=%d", nw.Nodes(), nw.Side())
	}
	nw2, err := New(101, 8)
	if err != nil {
		t.Fatal(err)
	}
	if nw2.Nodes() != 121 || nw2.Side() != 11 {
		t.Errorf("non-square request: Nodes=%d Side=%d, want 121/11", nw2.Nodes(), nw2.Side())
	}
}

func TestAccessors(t *testing.T) {
	t.Parallel()
	nw, err := New(64*64, 16, WithRadius(3))
	if err != nil {
		t.Fatal(err)
	}
	if nw.Agents() != 16 || nw.Radius() != 3 {
		t.Errorf("Agents=%d Radius=%d", nw.Agents(), nw.Radius())
	}
	rc := nw.PercolationRadius()
	if want := math.Sqrt(4096.0 / 16); rc != want {
		t.Errorf("PercolationRadius = %v, want %v", rc, want)
	}
	if !nw.Subcritical() {
		t.Error("r=3 < rc=16 should be subcritical")
	}
	if scale := nw.ExpectedBroadcastScale(); scale != 1024 {
		t.Errorf("ExpectedBroadcastScale = %v, want 1024", scale)
	}
	sup, err := New(64*64, 16, WithRadius(17))
	if err != nil {
		t.Fatal(err)
	}
	if sup.Subcritical() {
		t.Error("r=17 > rc=16 should be supercritical")
	}
}

func TestBroadcastEndToEnd(t *testing.T) {
	t.Parallel()
	nw, err := New(16*16, 8, WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	res, err := nw.Broadcast()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("broadcast incomplete: %+v", res)
	}
	if len(res.InformedCurve) != res.Steps+1 {
		t.Errorf("curve length %d, steps %d", len(res.InformedCurve), res.Steps)
	}
	if res.InformedCurve[len(res.InformedCurve)-1] != 8 {
		t.Error("curve does not end with everyone informed")
	}
	if res.Source != 0 {
		t.Errorf("default source = %d, want 0", res.Source)
	}
}

func TestBroadcastDeterministicAndSeedSensitive(t *testing.T) {
	t.Parallel()
	run := func(seed uint64) BroadcastResult {
		nw, err := New(20*20, 6, WithSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		res, err := nw.Broadcast()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a1, a2 := run(5), run(5)
	if a1.Steps != a2.Steps {
		t.Error("same seed, different T_B")
	}
	// Different seeds nearly always differ; tolerate the rare coincidence
	// by checking a couple of seeds.
	if run(6).Steps == a1.Steps && run(7).Steps == a1.Steps {
		t.Error("three different seeds all matched; randomness suspicious")
	}
}

func TestGossipEndToEnd(t *testing.T) {
	t.Parallel()
	nw, err := New(12*12, 5, WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	res, err := nw.Gossip()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("gossip incomplete: %+v", res)
	}
}

func TestGossipPartialEndToEnd(t *testing.T) {
	t.Parallel()
	nw, err := New(12*12, 6, WithSeed(37))
	if err != nil {
		t.Fatal(err)
	}
	res, err := nw.GossipPartial(2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("partial gossip incomplete: %+v", res)
	}
	if _, err := nw.GossipPartial(7); err == nil {
		t.Error("rumors > k accepted")
	}
	if _, err := nw.GossipPartial(-1); err == nil {
		t.Error("negative rumors accepted")
	}
}

func TestFrogBroadcastEndToEnd(t *testing.T) {
	t.Parallel()
	nw, err := New(12*12, 5, WithSeed(13))
	if err != nil {
		t.Fatal(err)
	}
	res, err := nw.FrogBroadcast()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("frog broadcast incomplete: %+v", res)
	}
	if res.CoverageSteps != -1 {
		t.Errorf("frog coverage = %d, want -1 (not tracked)", res.CoverageSteps)
	}
}

func TestCoverTimeEndToEnd(t *testing.T) {
	t.Parallel()
	nw, err := New(8*8, 4, WithSeed(17))
	if err != nil {
		t.Fatal(err)
	}
	res, err := nw.CoverTime()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.Covered != 64 {
		t.Fatalf("cover time: %+v", res)
	}
}

func TestExtinctionEndToEnd(t *testing.T) {
	t.Parallel()
	nw, err := New(10*10, 6, WithSeed(19))
	if err != nil {
		t.Fatal(err)
	}
	res, err := nw.Extinction(4)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.Survivors != 0 {
		t.Fatalf("extinction: %+v", res)
	}
	if _, err := nw.Extinction(0); err == nil {
		t.Error("preys=0 accepted")
	}
}

func TestCensus(t *testing.T) {
	t.Parallel()
	nw, err := New(32*32, 64, WithSeed(23))
	if err != nil {
		t.Fatal(err)
	}
	// Radius 0: components are tiny. Radius = diameter: one component.
	c0, err := nw.Census(0)
	if err != nil {
		t.Fatal(err)
	}
	if c0.Components < 32 || c0.MaxSize > 8 {
		t.Errorf("r=0 census implausible: %+v", c0)
	}
	cAll, err := nw.Census(2 * 32)
	if err != nil {
		t.Fatal(err)
	}
	if cAll.Components != 1 || cAll.GiantFraction != 1 {
		t.Errorf("full-radius census: %+v", cAll)
	}
	if _, err := nw.Census(-1); err == nil {
		t.Error("negative census radius accepted")
	}
}

func TestCensusMatchesSimulationPlacement(t *testing.T) {
	t.Parallel()
	// The census and a broadcast with the same seed see the same initial
	// population, so a grid-spanning radius census must agree with the
	// instant-broadcast observation.
	nw, err := New(16*16, 10, WithSeed(29), WithRadius(30))
	if err != nil {
		t.Fatal(err)
	}
	res, err := nw.Broadcast()
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 0 {
		t.Fatalf("radius 30 on 16x16 grid should broadcast instantly, got %d", res.Steps)
	}
	c, err := nw.Census(30)
	if err != nil {
		t.Fatal(err)
	}
	if c.Components != 1 {
		t.Fatalf("census disagrees with simulation: %+v", c)
	}
}

func TestMaxStepsOption(t *testing.T) {
	t.Parallel()
	nw, err := New(64*64, 2, WithSeed(31), WithMaxSteps(2))
	if err != nil {
		t.Fatal(err)
	}
	res, err := nw.Broadcast()
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed {
		t.Skip("improbable instant completion")
	}
	if res.Steps > 2 {
		t.Errorf("cap exceeded: %d steps", res.Steps)
	}
}

func TestBroadcastWithObstacles(t *testing.T) {
	t.Parallel()
	nw, err := New(16*16, 8, WithSeed(41))
	if err != nil {
		t.Fatal(err)
	}
	open, err := nw.BroadcastWithObstacles(OpenDomain)
	if err != nil {
		t.Fatal(err)
	}
	if !open.Completed {
		t.Fatalf("open-domain obstacle broadcast incomplete: %+v", open)
	}
	walled, err := nw.BroadcastWithObstacles(Obstacles{WallColumn: 8, WallGap: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !walled.Completed {
		t.Fatalf("walled broadcast incomplete: %+v", walled)
	}
	if _, err := nw.BroadcastWithObstacles(Obstacles{WallColumn: 99, WallGap: 2}); err == nil {
		t.Error("off-grid wall accepted")
	}
	if _, err := nw.BroadcastWithObstacles(Obstacles{WallColumn: -1, Density: 1.5}); err == nil {
		t.Error("invalid density accepted")
	}
}

// TestBroadcastWithObstaclesSourceAndObservations: the obstacle broadcast
// is the ordinary broadcast engine on the domain's walk, so it starts from
// the WithSource agent and records the WithObservations series.
func TestBroadcastWithObstaclesSourceAndObservations(t *testing.T) {
	t.Parallel()
	nw, err := New(16*16, 8, WithSeed(41), WithSource(5),
		WithObservations(Observation{Observables: []string{"informed"}}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := nw.BroadcastWithObstacles(Obstacles{WallColumn: 8, WallGap: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.Source != 5 {
		t.Fatalf("result %+v, want a completed run from agent 5", res)
	}
	if res.Series == nil {
		t.Fatal("no series recorded under WithObservations")
	}
	steps, informed := res.Series.Steps, res.Series.Values["informed"]
	if len(steps) != res.Steps+1 || steps[len(steps)-1] != res.Steps {
		t.Fatalf("series steps %d..%d, want 0..%d", steps[0], steps[len(steps)-1], res.Steps)
	}
	if informed[0] < 1 || informed[len(informed)-1] != 8 {
		t.Errorf("informed series runs %v..%v, want >= 1 .. 8", informed[0], informed[len(informed)-1])
	}
}

func TestObstaclesNone(t *testing.T) {
	t.Parallel()
	if !OpenDomain.None() {
		t.Error("OpenDomain.None() = false")
	}
	if (Obstacles{WallColumn: 3}).None() {
		t.Error("walled spec reported None")
	}
	if (Obstacles{WallColumn: -1, Density: 0.1}).None() {
		t.Error("obstacle spec reported None")
	}
}

func TestFloorRadius(t *testing.T) {
	t.Parallel()
	if FloorRadius(3.7) != 3 {
		t.Error("FloorRadius(3.7) != 3")
	}
	if FloorRadius(-1) != -1 {
		t.Error("FloorRadius(-1) != -1")
	}
}
