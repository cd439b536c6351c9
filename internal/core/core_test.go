package core

import (
	"testing"

	"mobilenet/internal/grid"
	"mobilenet/internal/obs"
	"mobilenet/internal/step"
)

func testConfig(side, k int, radius int, seed uint64) Config {
	return Config{
		Grid:   grid.MustNew(side),
		K:      k,
		Radius: radius,
		Seed:   seed,
		Source: 0,
	}
}

func TestConfigValidation(t *testing.T) {
	t.Parallel()
	g := grid.MustNew(8)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"nil grid", Config{K: 4}},
		{"zero k", Config{Grid: g}},
		{"negative k", Config{Grid: g, K: -1}},
		{"source too high", Config{Grid: g, K: 4, Source: 4}},
		{"source too low", Config{Grid: g, K: 4, Source: -2}},
		{"negative max steps", Config{Grid: g, K: 4, MaxSteps: -1}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			if _, err := NewBroadcast(tc.cfg); err == nil {
				t.Errorf("NewBroadcast accepted invalid config %+v", tc.cfg)
			}
			if _, err := NewGossip(tc.cfg); err == nil {
				t.Errorf("NewGossip accepted invalid config %+v", tc.cfg)
			}
		})
	}
}

func TestDefaultMaxStepsPositive(t *testing.T) {
	t.Parallel()
	cfg := testConfig(16, 4, 0, 1)
	if got := cfg.StepCap(); got < 4096 {
		t.Errorf("default StepCap = %d, want >= 4096", got)
	}
	cfg.MaxSteps = 77
	if got := cfg.StepCap(); got != 77 {
		t.Errorf("explicit StepCap = %d, want 77", got)
	}
}

func TestBroadcastCompletesSmall(t *testing.T) {
	t.Parallel()
	res, err := RunBroadcast(testConfig(8, 4, 0, 42))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("broadcast did not complete: %+v", res)
	}
	if res.Steps < 0 {
		t.Fatalf("negative broadcast time %d", res.Steps)
	}
}

func TestBroadcastSingleAgentInstant(t *testing.T) {
	t.Parallel()
	res, err := RunBroadcast(testConfig(8, 1, 0, 7))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.Steps != 0 {
		t.Fatalf("single agent broadcast: %+v, want instant completion", res)
	}
}

func TestBroadcastGiantRadiusInstant(t *testing.T) {
	t.Parallel()
	// Radius covering the whole grid: everyone is one component at t=0.
	cfg := testConfig(8, 10, 14, 3) // diameter of 8x8 grid is 14
	res, err := RunBroadcast(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.Steps != 0 {
		t.Fatalf("grid-wide radius should broadcast at t=0: %+v", res)
	}
}

func TestBroadcastRandomSource(t *testing.T) {
	t.Parallel()
	cfg := testConfig(8, 6, 0, 5)
	cfg.Source = SourceRandom
	b, err := NewBroadcast(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if b.SourceAgent() < 0 || b.SourceAgent() >= 6 {
		t.Fatalf("random source out of range: %d", b.SourceAgent())
	}
	if !b.Informed(b.SourceAgent()) {
		t.Fatal("source not informed at t=0")
	}
}

func TestBroadcastMonotoneInformedCurve(t *testing.T) {
	t.Parallel()
	cfg := testConfig(12, 8, 0, 11)
	cfg.RecordCurve = true
	res, err := RunBroadcast(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.InformedCurve) == 0 {
		t.Fatal("empty informed curve despite RecordCurve")
	}
	if res.InformedCurve[0] < 1 {
		t.Errorf("curve starts at %d, want >= 1", res.InformedCurve[0])
	}
	for i := 1; i < len(res.InformedCurve); i++ {
		if res.InformedCurve[i] < res.InformedCurve[i-1] {
			t.Fatalf("informed count decreased at step %d: %d -> %d",
				i, res.InformedCurve[i-1], res.InformedCurve[i])
		}
	}
	last := res.InformedCurve[len(res.InformedCurve)-1]
	if res.Completed && last != 8 {
		t.Errorf("completed run ends with %d informed, want 8", last)
	}
}

func TestBroadcastMaxStepsCap(t *testing.T) {
	t.Parallel()
	// Large grid, 2 agents, tiny cap: cannot complete.
	cfg := testConfig(64, 2, 0, 13)
	cfg.MaxSteps = 3
	res, err := RunBroadcast(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed {
		t.Skip("improbable instant meeting; skipping")
	}
	if res.Steps != 3 {
		t.Errorf("capped run Steps = %d, want 3", res.Steps)
	}
}

func TestBroadcastDeterministicBySeed(t *testing.T) {
	t.Parallel()
	cfg := testConfig(10, 6, 1, 99)
	r1, err := RunBroadcast(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunBroadcast(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Steps != r2.Steps || r1.Source != r2.Source {
		t.Fatalf("same seed, different results: %+v vs %+v", r1, r2)
	}
}

// TestBroadcastFrontierMonotone reads the frontier observable at every:1
// through the driver: one sample per step up to T_B, never retreating,
// and at r = 0 advancing by at most 1 per step (agents move at speed 1,
// and a newly informed agent shares its node with an informed one).
func TestBroadcastFrontierMonotone(t *testing.T) {
	t.Parallel()
	cfg := testConfig(12, 8, 0, 17)
	b, err := NewBroadcast(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder(obs.Spec{Observables: []string{obs.Frontier}, Every: 1})
	res := step.Run(b, step.Hooks{Cap: cfg.StepCap(), Observe: rec})
	if !res.Completed {
		t.Fatal("broadcast incomplete")
	}
	frontier := rec.Series().Values[obs.Frontier]
	if len(frontier) != res.Steps+1 {
		t.Fatalf("%d frontier samples for %d steps", len(frontier), res.Steps)
	}
	if frontier[0] < 0 {
		t.Fatalf("frontier %v at time 0: the source's node is informed", frontier[0])
	}
	for i := 1; i < len(frontier); i++ {
		if frontier[i] < frontier[i-1] {
			t.Fatalf("frontier retreated at step %d", i)
		}
		if frontier[i]-frontier[i-1] > 1 {
			t.Fatalf("frontier jumped by %v at step %d", frontier[i]-frontier[i-1], i)
		}
	}
}

func TestBroadcastCoverage(t *testing.T) {
	t.Parallel()
	cfg := testConfig(6, 8, 0, 23)
	cfg.TrackInformedArea = true
	res, err := RunBroadcast(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("broadcast incomplete")
	}
	// In the dynamic model coverage and broadcast are incomparable (the
	// paper notes T_C can be reached while agents remain uninformed), so we
	// only check that coverage happened and is plausibly timed.
	if res.CoverageSteps < 0 {
		t.Fatal("coverage never completed despite area tracking")
	}
	// Covering 36 nodes takes at least ceil(36/k)-1 steps even if all 8
	// agents were informed from the start and never overlapped.
	if min := cfg.Grid.N()/8 - 1; res.CoverageSteps < min {
		t.Errorf("T_C=%d below physical floor %d", res.CoverageSteps, min)
	}
}

func TestBroadcastStepByStepMatchesRun(t *testing.T) {
	t.Parallel()
	cfg := testConfig(10, 5, 0, 31)
	b1, err := NewBroadcast(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for !b1.Done() {
		b1.Step()
	}
	res2, err := RunBroadcast(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if b1.Time() != res2.Steps {
		t.Fatalf("manual stepping T_B=%d, Run T_B=%d", b1.Time(), res2.Steps)
	}
}

// TestBroadcastTrackComponents checks the per-step largest visibility
// component, recorded by the largest_component observable at every step:
// every sample, and so the run's maximum component, lies in [1, k].
func TestBroadcastTrackComponents(t *testing.T) {
	t.Parallel()
	cfg := testConfig(6, 10, 2, 37)
	b, err := NewBroadcast(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder(obs.Spec{Observables: []string{obs.Largest}, Every: 1})
	res := step.Run(b, step.Hooks{Cap: cfg.StepCap(), Observe: rec})
	if !res.Completed {
		t.Fatal("broadcast incomplete")
	}
	largest := rec.Series().Values[obs.Largest]
	if len(largest) != res.Steps+1 {
		t.Fatalf("%d largest-component samples for %d steps", len(largest), res.Steps)
	}
	for i, m := range largest {
		if m < 1 || m > 10 {
			t.Errorf("largest component %v at step %d out of [1,10]", m, i)
		}
	}
}

func TestExplicitPlacement(t *testing.T) {
	t.Parallel()
	g := grid.MustNew(8)
	// All agents stacked on one node: broadcast completes at t=0.
	stack := make([]grid.Point, 5)
	for i := range stack {
		stack[i] = grid.Point{X: 3, Y: 3}
	}
	cfg := Config{Grid: g, K: 5, Radius: 0, Seed: 1, Source: 0, Placement: stack}
	res, err := RunBroadcast(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.Steps != 0 {
		t.Fatalf("stacked placement should broadcast instantly: %+v", res)
	}
	// Gossip too.
	gres, err := RunGossip(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !gres.Completed || gres.Steps != 0 {
		t.Fatalf("stacked gossip: %+v", gres)
	}
}

func TestExplicitPlacementSpread(t *testing.T) {
	t.Parallel()
	g := grid.MustNew(16)
	// Two agents at opposite corners at r=0: cannot complete at t=0.
	cfg := Config{
		Grid: g, K: 2, Radius: 0, Seed: 7, Source: 0,
		Placement: []grid.Point{{X: 0, Y: 0}, {X: 15, Y: 15}},
		MaxSteps:  1,
	}
	b, err := NewBroadcast(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if b.Done() {
		t.Fatal("corner-separated agents informed at t=0")
	}
	if b.Population().Position(0) != (grid.Point{X: 0, Y: 0}) {
		t.Fatal("placement not applied")
	}
}

func TestPlacementValidation(t *testing.T) {
	t.Parallel()
	g := grid.MustNew(8)
	// Wrong length.
	cfg := Config{Grid: g, K: 3, Placement: []grid.Point{{X: 0, Y: 0}}}
	if _, err := NewBroadcast(cfg); err == nil {
		t.Error("short placement accepted")
	}
	// Off-grid point.
	cfg = Config{Grid: g, K: 1, Placement: []grid.Point{{X: 9, Y: 0}}}
	if _, err := NewBroadcast(cfg); err == nil {
		t.Error("off-grid placement accepted")
	}
}

func TestCellReachTracking(t *testing.T) {
	t.Parallel()
	cfg := testConfig(16, 8, 0, 71)
	cfg.CellSide = 4
	b, err := NewBroadcast(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for !b.Done() {
		b.Step()
	}
	rep := b.CellReach()
	if rep == nil {
		t.Fatal("CellReach nil despite CellSide")
	}
	if rep.Cells != 16 || rep.CellSide != 4 {
		t.Fatalf("tessellation shape wrong: %+v", rep)
	}
	if rep.SourceCell < 0 || rep.SourceCell >= rep.Cells {
		t.Fatalf("source cell %d out of range", rep.SourceCell)
	}
	// The source's cell is reached at t=0.
	if rep.ReachTimes[rep.SourceCell] != 0 {
		t.Errorf("source cell reach time = %d, want 0", rep.ReachTimes[rep.SourceCell])
	}
	// Reach times are bounded by the run length and non-negative once set.
	for c, rt := range rep.ReachTimes {
		if rt >= 0 && rt > b.Time() {
			t.Errorf("cell %d reach time %d exceeds run length %d", c, rt, b.Time())
		}
	}
	if rep.MaxReach < 0 || rep.MaxReach > b.Time() {
		t.Errorf("MaxReach = %d", rep.MaxReach)
	}
	if rep.Reached < 1 {
		t.Error("no cells reached")
	}
}

func TestCellReachDisabled(t *testing.T) {
	t.Parallel()
	b, err := NewBroadcast(testConfig(8, 4, 0, 73))
	if err != nil {
		t.Fatal(err)
	}
	if b.CellReach() != nil {
		t.Error("CellReach non-nil without CellSide")
	}
}

func TestCellReachNegativeCellSideRejected(t *testing.T) {
	t.Parallel()
	cfg := testConfig(8, 4, 0, 79)
	cfg.CellSide = -1
	if _, err := NewBroadcast(cfg); err == nil {
		t.Error("negative CellSide accepted")
	}
}

func TestReachByCellDistance(t *testing.T) {
	t.Parallel()
	// Hand-built report: 3x3 cells, source at center (cell 4).
	rep := &CellReachReport{
		Cells:      9,
		SourceCell: 4,
		ReachTimes: []int{9, 5, 9, 5, 0, 5, 9, 5, -1},
	}
	prof := rep.ReachByCellDistance(3)
	if len(prof) != 2 {
		t.Fatalf("profile length %d, want 2", len(prof))
	}
	if prof[0] != 0 {
		t.Errorf("ring 0 mean = %v, want 0", prof[0])
	}
	// Ring 1: seven reached cells (one unreached) with times 9,5,9,5,5,9,5:
	// mean = 47/7.
	want := 47.0 / 7.0
	if diff := prof[1] - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("ring 1 mean = %v, want %v", prof[1], want)
	}
	if rep.ReachByCellDistance(0) != nil {
		t.Error("perRow=0 should return nil")
	}
}

func TestInitialSpread(t *testing.T) {
	t.Parallel()
	cfg := testConfig(16, 8, 0, 41)
	d, err := InitialSpread(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d < 0 || d > cfg.Grid.Diameter() {
		t.Errorf("initial spread %d outside [0, %d]", d, cfg.Grid.Diameter())
	}
	// Deterministic per seed.
	d2, err := InitialSpread(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d != d2 {
		t.Errorf("InitialSpread not deterministic: %d vs %d", d, d2)
	}
	if _, err := InitialSpread(Config{}); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestGossipCompletesSmall(t *testing.T) {
	t.Parallel()
	res, err := RunGossip(testConfig(8, 4, 0, 43))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("gossip did not complete: %+v", res)
	}
}

func TestGossipSingleAgent(t *testing.T) {
	t.Parallel()
	res, err := RunGossip(testConfig(8, 1, 0, 47))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.Steps != 0 {
		t.Fatalf("single-agent gossip: %+v", res)
	}
}

func TestGossipGiantRadiusInstant(t *testing.T) {
	t.Parallel()
	cfg := testConfig(8, 6, 14, 53)
	res, err := RunGossip(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.Steps != 0 {
		t.Fatalf("grid-wide radius gossip: %+v, want instant", res)
	}
}

func TestGossipRumorMonotonicity(t *testing.T) {
	t.Parallel()
	cfg := testConfig(10, 6, 0, 59)
	g, err := NewGossip(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Every agent must always know its own rumor, and counts never shrink.
	prev := make([]int, 6)
	for i := 0; i < 6; i++ {
		if !g.Knows(i, i) {
			t.Fatalf("agent %d lost its own rumor at t=0", i)
		}
		prev[i] = g.RumorCount(i)
	}
	for step := 0; step < 200 && !g.Done(); step++ {
		g.Step()
		for i := 0; i < 6; i++ {
			c := g.RumorCount(i)
			if c < prev[i] {
				t.Fatalf("agent %d forgot rumors: %d -> %d at t=%d", i, prev[i], c, g.Time())
			}
			if !g.Knows(i, i) {
				t.Fatalf("agent %d lost its own rumor", i)
			}
			prev[i] = c
		}
	}
}

func TestGossipAtLeastBroadcast(t *testing.T) {
	t.Parallel()
	// With identical seeds the trajectories coincide, and gossip (all k
	// rumors everywhere) cannot finish before the slowest single rumor.
	// We check the weaker, deterministic claim: T_G >= T_B for the rumor
	// originating at the gossip's slowest agent is hard to extract, so we
	// assert T_G >= max over a few broadcast sources.
	side, k := 10, 5
	var maxTB int
	for srcIdx := 0; srcIdx < k; srcIdx++ {
		cfg := testConfig(side, k, 0, 61)
		cfg.Source = srcIdx
		res, err := RunBroadcast(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed {
			t.Fatal("broadcast incomplete")
		}
		if res.Steps > maxTB {
			maxTB = res.Steps
		}
	}
	gres, err := RunGossip(testConfig(side, k, 0, 61))
	if err != nil {
		t.Fatal(err)
	}
	if !gres.Completed {
		t.Fatal("gossip incomplete")
	}
	if gres.Steps < maxTB {
		t.Errorf("T_G=%d < max T_B=%d with shared trajectories", gres.Steps, maxTB)
	}
}

func TestPartialGossip(t *testing.T) {
	t.Parallel()
	cfg := testConfig(10, 8, 0, 83)
	g, err := NewPartialGossip(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.TotalRumors() != 3 {
		t.Fatalf("TotalRumors = %d, want 3", g.TotalRumors())
	}
	// Agents 0-2 hold rumors 0-2; agents 3+ hold nothing initially (unless
	// the t=0 exchange already reached them).
	for i := 0; i < 3; i++ {
		if !g.Knows(i, i) {
			t.Errorf("agent %d missing its own rumor", i)
		}
	}
	res := g.Run()
	if !res.Completed {
		t.Fatalf("partial gossip incomplete: %+v", res)
	}
	for i := 0; i < 8; i++ {
		if g.RumorCount(i) != 3 {
			t.Errorf("agent %d knows %d/3 rumors after completion", i, g.RumorCount(i))
		}
	}
}

func TestPartialGossipValidation(t *testing.T) {
	t.Parallel()
	cfg := testConfig(8, 4, 0, 89)
	if _, err := NewPartialGossip(cfg, -1); err == nil {
		t.Error("negative rumor count accepted")
	}
	if _, err := NewPartialGossip(cfg, 5); err == nil {
		t.Error("rumors > k accepted")
	}
	// rumors = 0 selects |M| = k.
	g, err := NewPartialGossip(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.TotalRumors() != 4 {
		t.Errorf("default TotalRumors = %d, want 4", g.TotalRumors())
	}
}

func TestPartialGossipSingleRumorMatchesBroadcastBound(t *testing.T) {
	t.Parallel()
	// |M| = 1 gossip is exactly broadcast from agent 0 (same seed, same
	// trajectories, same exchange rule), so the times must coincide.
	cfg := testConfig(10, 6, 0, 97)
	gres, err := RunPartialGossip(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	bres, err := RunBroadcast(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !gres.Completed || !bres.Completed {
		t.Fatal("runs incomplete")
	}
	if gres.Steps != bres.Steps {
		t.Errorf("single-rumor gossip T=%d != broadcast T=%d", gres.Steps, bres.Steps)
	}
}

func TestPartialGossipFewerRumorsNotSlower(t *testing.T) {
	t.Parallel()
	// With shared trajectories, knowing-everything with fewer rumors is a
	// weaker condition: T_G(|M|=2) <= T_G(|M|=k).
	cfg := testConfig(10, 6, 0, 101)
	small, err := RunPartialGossip(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	full, err := RunPartialGossip(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !small.Completed || !full.Completed {
		t.Fatal("runs incomplete")
	}
	if small.Steps > full.Steps {
		t.Errorf("T_G(|M|=2)=%d > T_G(|M|=k)=%d with shared trajectories", small.Steps, full.Steps)
	}
}

func TestGossipDeterministicBySeed(t *testing.T) {
	t.Parallel()
	cfg := testConfig(9, 5, 1, 67)
	r1, err := RunGossip(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunGossip(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatalf("same seed, different gossip results: %+v vs %+v", r1, r2)
	}
}

// Radius monotonicity in distribution: a larger radius can only help. With
// a shared seed the trajectories are identical, and since information flow
// at radius r1 is a subset of flow at radius r2 >= r1, T_B must be
// non-increasing in r for the same trajectory realisation.
func TestBroadcastRadiusMonotoneSharedSeed(t *testing.T) {
	t.Parallel()
	for seed := uint64(0); seed < 6; seed++ {
		var prev int
		for i, r := range []int{0, 1, 2, 4} {
			cfg := testConfig(12, 8, r, 100+seed)
			res, err := RunBroadcast(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Completed {
				t.Fatal("incomplete")
			}
			if i > 0 && res.Steps > prev {
				t.Errorf("seed %d: T_B increased from %d to %d when r grew to %d",
					seed, prev, res.Steps, r)
			}
			prev = res.Steps
		}
	}
}

func BenchmarkBroadcastSmall(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := testConfig(32, 16, 0, uint64(i))
		if _, err := RunBroadcast(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGossipSmall(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := testConfig(24, 12, 0, uint64(i))
		if _, err := RunGossip(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
