// The external test package breaks what would otherwise be an import
// cycle: these tests drive agent.Population, and agent depends on mobility.
package mobility_test

import (
	"testing"

	"mobilenet/internal/agent"
	"mobilenet/internal/grid"
	"mobilenet/internal/mobility"
	"mobilenet/internal/rng"
	"mobilenet/internal/stats"
	"mobilenet/internal/trace"
	"mobilenet/internal/walk"
)

// recordLazyTrace records a lazy-walk population for the given number of
// steps, for use as TraceReplay input.
func recordLazyTrace(t testing.TB, side, k, steps int, seed uint64) *trace.Trace {
	t.Helper()
	g := grid.MustNew(side)
	pop, err := agent.New(g, k, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	rec, err := trace.NewRecorder(side, pop.Positions())
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < steps; s++ {
		pop.Step()
		if err := rec.Record(pop.Positions()); err != nil {
			t.Fatal(err)
		}
	}
	return rec.Trace()
}

// allModels returns every shipped model, parameterised for a grid of the
// given side, paired with nothing else — the shared property tests iterate
// over this list so a future model cannot dodge them.
func allModels(t testing.TB, side int) []mobility.Model {
	return []mobility.Model{
		mobility.LazyWalk{},
		mobility.Torus{},
		mobility.Async{},
		mobility.Simple{},
		mobility.RandomWaypoint{Pause: 1},
		mobility.LevyFlight{},
		mobility.Ballistic{},
		mobility.TraceReplay{Trace: recordLazyTrace(t, side, 64, 300, 99), Loop: true},
	}
}

// TestModelsStayOnGrid is the shared sanity invariant: every model keeps
// every agent on the grid at every step, under both the bulk Step and the
// per-agent StepAgent paths.
func TestModelsStayOnGrid(t *testing.T) {
	t.Parallel()
	const side = 12
	g := grid.MustNew(side)
	for _, m := range allModels(t, side) {
		t.Run(m.Name(), func(t *testing.T) {
			t.Parallel()
			st, err := m.Bind(g, 40, rng.New(7))
			if err != nil {
				t.Fatal(err)
			}
			pos := make([]grid.Point, 40)
			st.Place(pos)
			for step := 0; step < 400; step++ {
				if step%2 == 0 {
					st.Step(pos)
				} else {
					for i := range pos {
						st.StepAgent(pos, i)
					}
				}
				for i, p := range pos {
					if !g.Contains(p) {
						t.Fatalf("step %d: agent %d off-grid at %v", step, i, p)
					}
				}
			}
		})
	}
}

// TestUniformOccupancy is the shared E16-style stationarity property: every
// model that claims UniformStationary must keep a large uniformly placed
// population chi-square-indistinguishable from uniform at several
// checkpoints. Each checkpoint snapshot is across independent agents, so
// the chi-square independence assumption holds.
func TestUniformOccupancy(t *testing.T) {
	t.Parallel()
	const side = 12
	g := grid.MustNew(side)
	for _, m := range allModels(t, side) {
		if !m.UniformStationary() {
			continue
		}
		t.Run(m.Name(), func(t *testing.T) {
			t.Parallel()
			k := 8 * g.N()
			st, err := m.Bind(g, k, rng.New(2024))
			if err != nil {
				t.Fatal(err)
			}
			pos := make([]grid.Point, k)
			st.Place(pos)
			now := 0
			for _, checkpoint := range []int{0, 50, 250} {
				for ; now < checkpoint; now++ {
					st.Step(pos)
				}
				counts := make([]int, g.N())
				for _, p := range pos {
					counts[g.ID(p)]++
				}
				stat, rejected, err := stats.ChiSquareUniform(counts, 0.001)
				if err != nil {
					t.Fatal(err)
				}
				if rejected {
					t.Errorf("t=%d: occupancy not uniform (chi2=%.1f)", checkpoint, stat)
				}
			}
		})
	}
}

// TestWaypointIsDeclaredNonUniform pins the classical waypoint density
// pathology: the model must not claim the uniform-stationarity property.
func TestWaypointIsDeclaredNonUniform(t *testing.T) {
	t.Parallel()
	if (mobility.RandomWaypoint{}).UniformStationary() {
		t.Fatal("waypoint claims uniform stationarity; its occupancy is centre-biased")
	}
	if (mobility.TraceReplay{}).UniformStationary() {
		t.Fatal("trace replay cannot promise uniform occupancy")
	}
}

// TestLazyWalkMatchesHistoricalKernel pins the bit-for-bit guarantee the
// subsystem was built around: a population under the default model consumes
// randomness exactly like the historical hardcoded placement + walk.Step
// loop, so equal seeds yield equal trajectories.
func TestLazyWalkMatchesHistoricalKernel(t *testing.T) {
	t.Parallel()
	const side, k, steps = 16, 12, 300
	g := grid.MustNew(side)

	pop, err := agent.NewWithModel(g, k, rng.New(41), mobility.LazyWalk{})
	if err != nil {
		t.Fatal(err)
	}

	// The seed implementation, replicated inline.
	src := rng.New(41)
	ref := make([]grid.Point, k)
	for i := range ref {
		ref[i] = grid.Point{X: int32(src.Intn(side)), Y: int32(src.Intn(side))}
	}
	for s := 0; s <= steps; s++ {
		for i := range ref {
			if pop.Position(i) != ref[i] {
				t.Fatalf("t=%d agent %d: %v != historical %v", s, i, pop.Position(i), ref[i])
			}
		}
		pop.Step()
		for i := range ref {
			ref[i] = walk.Step(g, ref[i], src)
		}
	}
}

// TestAblationModelsMatchKernels pins the ablation models to the walk
// kernels and schedules they wrap: uniform placement drawing X then Y per
// agent, then torus and simple stepping every agent through walk.TorusStep
// or walk.SimpleStep in index order, and async making k moves per step,
// each an Intn(k) draw followed by one walk.Step of the drawn agent.
func TestAblationModelsMatchKernels(t *testing.T) {
	t.Parallel()
	const side, k, steps = 16, 12, 300
	g := grid.MustNew(side)
	perAgent := func(step func(*grid.Grid, grid.Point, *rng.Source) grid.Point) func([]grid.Point, *rng.Source) {
		return func(pos []grid.Point, src *rng.Source) {
			for i := range pos {
				pos[i] = step(g, pos[i], src)
			}
		}
	}
	cases := []struct {
		m    mobility.Model
		step func(pos []grid.Point, src *rng.Source)
	}{
		{mobility.Torus{}, perAgent(walk.TorusStep)},
		{mobility.Simple{}, perAgent(walk.SimpleStep)},
		{mobility.Async{}, func(pos []grid.Point, src *rng.Source) {
			for u := 0; u < len(pos); u++ {
				i := src.Intn(len(pos))
				pos[i] = walk.Step(g, pos[i], src)
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.m.Name(), func(t *testing.T) {
			t.Parallel()
			pop, err := agent.NewWithModel(g, k, rng.New(43), c.m)
			if err != nil {
				t.Fatal(err)
			}
			src := rng.New(43)
			ref := make([]grid.Point, k)
			for i := range ref {
				ref[i] = grid.Point{X: int32(src.Intn(side)), Y: int32(src.Intn(side))}
			}
			var moved []int32
			for s := 0; s <= steps; s++ {
				for i := range ref {
					if pop.Position(i) != ref[i] {
						t.Fatalf("t=%d agent %d: %v != kernel %v", s, i, pop.Position(i), ref[i])
					}
				}
				// Alternate the two population paths: both must run the
				// model's own Step.
				if s%2 == 0 {
					pop.Step()
				} else {
					moved, _ = pop.StepMoved(moved[:0])
				}
				c.step(ref, src)
			}
		})
	}
}

// TestTraceReplayReproducesInputExactly is the TraceReplay half of the
// shared property test: replaying a recorded population must reproduce the
// recorded trajectory position-for-position, and looping must restart at
// the recorded origins.
func TestTraceReplayReproducesInputExactly(t *testing.T) {
	t.Parallel()
	const side, k, steps = 10, 6, 120
	g := grid.MustNew(side)

	// Record a reference run and keep its full history.
	pop, err := agent.New(g, k, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	rec, err := trace.NewRecorder(side, pop.Positions())
	if err != nil {
		t.Fatal(err)
	}
	history := [][]grid.Point{clonePos(pop.Positions())}
	for s := 0; s < steps; s++ {
		pop.Step()
		if err := rec.Record(pop.Positions()); err != nil {
			t.Fatal(err)
		}
		history = append(history, clonePos(pop.Positions()))
	}
	tr := rec.Trace()

	// Replay through a population; the rng seed must be irrelevant.
	replay, err := agent.NewWithModel(g, k, rng.New(777), mobility.TraceReplay{Trace: tr, Loop: true})
	if err != nil {
		t.Fatal(err)
	}
	for lap := 0; lap < 2; lap++ {
		for s := 0; s <= steps; s++ {
			for i := range history[s] {
				if got := replay.Position(i); got != history[s][i] {
					t.Fatalf("lap %d t=%d agent %d: %v != recorded %v", lap, s, i, got, history[s][i])
				}
			}
			replay.Step()
		}
	}

	// Truncating replay freezes at the final recorded positions.
	frozen, err := agent.NewWithModel(g, k, rng.New(777), mobility.TraceReplay{Trace: tr, Loop: false})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < steps+40; s++ {
		frozen.Step()
	}
	for i := range history[steps] {
		if got := frozen.Position(i); got != history[steps][i] {
			t.Fatalf("truncated replay moved past the end: agent %d at %v, want %v", i, got, history[steps][i])
		}
	}
}

// TestTraceReplayOffset checks that an offset replay follows the trace's
// later agents: two populations replaying disjoint slices of one recording
// reproduce the recording's agents 0..1 and 2..3 respectively.
func TestTraceReplayOffset(t *testing.T) {
	t.Parallel()
	const side, steps = 10, 60
	g := grid.MustNew(side)
	tr := recordLazyTrace(t, side, 4, steps, 21)

	full, err := agent.NewWithModel(g, 4, rng.New(1), mobility.TraceReplay{Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	head, err := agent.NewWithModel(g, 2, rng.New(1), mobility.TraceReplay{Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	tail, err := agent.NewWithModel(g, 2, rng.New(1), mobility.TraceReplay{Trace: tr, Offset: 2})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s <= steps; s++ {
		for i := 0; i < 2; i++ {
			if head.Position(i) != full.Position(i) {
				t.Fatalf("t=%d: head agent %d at %v, full replay has %v", s, i, head.Position(i), full.Position(i))
			}
			if tail.Position(i) != full.Position(2+i) {
				t.Fatalf("t=%d: offset agent %d at %v, full replay agent %d has %v",
					s, i, tail.Position(i), 2+i, full.Position(2+i))
			}
		}
		full.Step()
		head.Step()
		tail.Step()
	}
}

func TestBindValidation(t *testing.T) {
	t.Parallel()
	g := grid.MustNew(8)
	src := rng.New(1)
	cases := []struct {
		name string
		m    mobility.Model
	}{
		{"waypoint negative pause", mobility.RandomWaypoint{Pause: -1}},
		{"levy negative alpha", mobility.LevyFlight{Alpha: -2}},
		{"levy zero max", mobility.LevyFlight{MaxJump: -1}},
		{"ballistic turn > 1", mobility.Ballistic{TurnProb: 1.5}},
		{"trace nil", mobility.TraceReplay{}},
		{"trace wrong side", mobility.TraceReplay{Trace: recordLazyTrace(t, 6, 4, 5, 1)}},
		{"trace negative offset", mobility.TraceReplay{Trace: recordLazyTrace(t, 8, 4, 5, 1), Offset: -1}},
		{"trace offset overruns", mobility.TraceReplay{Trace: recordLazyTrace(t, 8, 4, 5, 1), Offset: 1}},
	}
	for _, c := range cases {
		if _, err := c.m.Bind(g, 4, src); err == nil {
			t.Errorf("%s: Bind accepted", c.name)
		}
	}
	if _, err := (mobility.TraceReplay{Trace: recordLazyTrace(t, 8, 4, 5, 1)}).Bind(g, 6, src); err == nil {
		t.Error("trace with too few agents accepted")
	}
	for _, m := range allModels(t, 8) {
		if _, err := m.Bind(nil, 4, src); err == nil {
			t.Errorf("%s: nil grid accepted", m.Name())
		}
		if _, err := m.Bind(g, 0, src); err == nil {
			t.Errorf("%s: k=0 accepted", m.Name())
		}
		if _, err := m.Bind(g, 4, nil); err == nil {
			t.Errorf("%s: nil source accepted", m.Name())
		}
	}
}

func TestParse(t *testing.T) {
	t.Parallel()
	good := map[string]mobility.Model{
		"lazy":                 mobility.LazyWalk{},
		"lazywalk":             mobility.LazyWalk{},
		"waypoint":             mobility.RandomWaypoint{},
		"waypoint:pause=3":     mobility.RandomWaypoint{Pause: 3},
		"levy":                 mobility.LevyFlight{},
		"levy:alpha=2.5":       mobility.LevyFlight{Alpha: 2.5},
		"levy:alpha=1.2,max=9": mobility.LevyFlight{Alpha: 1.2, MaxJump: 9},
		"ballistic":            mobility.Ballistic{},
		"ballistic:turn=0.25":  mobility.Ballistic{TurnProb: 0.25},
		"torus":                mobility.Torus{},
		"async":                mobility.Async{},
	}
	for spec, want := range good {
		m, err := mobility.Parse(spec)
		if err != nil {
			t.Errorf("Parse(%q): %v", spec, err)
			continue
		}
		if m != want {
			t.Errorf("Parse(%q) = %#v, want %#v", spec, m, want)
		}
	}
	bad := []string{
		"teleport", "lazy:fast=1", "waypoint:pause=x", "levy:alpha",
		"levy:speed=3", "trace:", "trace:/definitely/missing.mtr",
		"ballistic:turn=a", "torus:x=1", "async:x=1", "simple",
	}
	for _, spec := range bad {
		if _, err := mobility.Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted", spec)
		}
	}
}

func clonePos(pos []grid.Point) []grid.Point {
	out := make([]grid.Point, len(pos))
	copy(out, pos)
	return out
}

// TestStepMovedMatchesStep is the shared MovedStepper contract test: for
// every model whose state implements the interface, StepMoved must produce
// trajectories bit-identical to Step under equal seeds and report exactly
// the agents whose position changed, in ascending index order.
func TestStepMovedMatchesStep(t *testing.T) {
	t.Parallel()
	const side, k, steps = 12, 48, 200
	g := grid.MustNew(side)
	for _, m := range allModels(t, side) {
		t.Run(m.Name(), func(t *testing.T) {
			plainState, err := m.Bind(g, k, rng.New(7))
			if err != nil {
				t.Fatal(err)
			}
			movedState, err := m.Bind(g, k, rng.New(7))
			if err != nil {
				t.Fatal(err)
			}
			ms, ok := movedState.(mobility.MovedStepper)
			if !ok {
				t.Skipf("%s does not implement MovedStepper", m.Name())
			}
			plain := make([]grid.Point, k)
			reporting := make([]grid.Point, k)
			plainState.Place(plain)
			movedState.Place(reporting)
			prev := make([]grid.Point, k)
			moved := make([]int32, 0, k)
			for s := 0; s < steps; s++ {
				copy(prev, reporting)
				plainState.Step(plain)
				moved = ms.StepMoved(reporting, moved[:0])
				j := 0
				for i := range reporting {
					if plain[i] != reporting[i] {
						t.Fatalf("t=%d agent %d: StepMoved %v != Step %v", s, i, reporting[i], plain[i])
					}
					reported := j < len(moved) && moved[j] == int32(i)
					if reported {
						j++
					}
					if actually := reporting[i] != prev[i]; actually != reported {
						t.Fatalf("t=%d agent %d: moved=%v reported=%v", s, i, actually, reported)
					}
				}
				if j != len(moved) {
					t.Fatalf("t=%d: moved report not ascending: %v", s, moved)
				}
			}
		})
	}
}

// TestPopulationStepMoved pins the population-level wrapper: a lazy-walk
// population reports moves (ok true) with trajectories identical to Step,
// and a model without the interface still steps identically with ok false.
func TestPopulationStepMoved(t *testing.T) {
	t.Parallel()
	const side, k, steps = 16, 32, 100
	g := grid.MustNew(side)
	for _, m := range []mobility.Model{mobility.LazyWalk{}, mobility.LevyFlight{}} {
		plain, err := agent.NewWithModel(g, k, rng.New(11), m)
		if err != nil {
			t.Fatal(err)
		}
		reporting, err := agent.NewWithModel(g, k, rng.New(11), m)
		if err != nil {
			t.Fatal(err)
		}
		var moved []int32
		var sawOK bool
		for s := 0; s < steps; s++ {
			plain.Step()
			var ok bool
			moved, ok = reporting.StepMoved(moved[:0])
			sawOK = ok
			for i := 0; i < k; i++ {
				if plain.Position(i) != reporting.Position(i) {
					t.Fatalf("%s t=%d agent %d: StepMoved diverged from Step", m.Name(), s, i)
				}
			}
		}
		if reporting.Time() != steps {
			t.Fatalf("%s: StepMoved advanced time to %d, want %d", m.Name(), reporting.Time(), steps)
		}
		if m.Name() == "lazy" && !sawOK {
			t.Fatalf("lazy walk should report moves")
		}
		if m.Name() == "levy" && sawOK {
			t.Fatalf("levy flight unexpectedly implements MovedStepper; update this pin")
		}
	}
}
