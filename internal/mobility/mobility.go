// Package mobility makes the motion law of the agent population a
// first-class, pluggable component. The paper proves T_B = Θ̃(n/√k) for one
// specific kernel — the 1/5-lazy simple random walk of its §2 — but related
// work (Jacquet–Mans–Rodolakis on propagation speed under waypoint-style
// motion; Zhang et al. on mobile conductance across mobility families)
// treats the mobility model as the experimental variable. This package
// defines the Model/State pair every engine (core, frog, coverage,
// predator) steps populations through, and ships eight implementations:
//
//   - LazyWalk: the paper's kernel, bit-for-bit identical to the historical
//     hardcoded stepping path under equal seeds.
//   - Torus, Simple and Async: the lazy walk's ablations, changing only the
//     boundary (wraparound), the laziness (every step moves) or the
//     schedule (random sequential updates). Simple is built in code only;
//     Async's StepAgent is the plain lazy step (see Async).
//   - RandomWaypoint: pick a uniform destination node, walk toward it one
//     lattice step at a time, optionally pause on arrival, repick.
//   - LevyFlight: truncated power-law jump lengths with uniform headings,
//     on the torus so uniform occupancy stays stationary.
//   - Ballistic: straight-line motion with a per-step turn probability, on
//     the torus.
//   - TraceReplay: replays a recorded internal/trace trajectory, looping or
//     truncating at the end.
//
// Outside this package, internal/barrier's Domain.Walk is the lazy walk
// on a grid with blocked nodes.
//
// A Model is a small immutable description (safe to share and reuse); Bind
// compiles it against a concrete grid and population size into a State that
// owns all per-agent bookkeeping. All randomness flows through the single
// *rng.Source handed to Bind, which keeps whole runs reproducible from one
// seed exactly as before the subsystem existed.
package mobility

import (
	"fmt"

	"mobilenet/internal/grid"
	"mobilenet/internal/rng"
)

// Model describes a motion law. Implementations are small value types that
// carry only parameters; Bind compiles them into per-population State.
type Model interface {
	// Name returns the canonical spec name of the model (e.g. "lazy",
	// "levy"). It is stable and used by CLI flags and error messages.
	Name() string

	// UniformStationary reports whether the model keeps the uniform
	// node-occupancy distribution stationary, the property the paper's
	// §2 model has and Experiment E16 checks. Models that report true are
	// held to the shared occupancy property test.
	UniformStationary() bool

	// Bind validates the model's parameters against a concrete grid and
	// population size and returns fresh per-population state. All
	// randomness the state will ever need is drawn from src, both inside
	// Bind and during later Place/Step calls.
	Bind(g *grid.Grid, k int, src *rng.Source) (State, error)
}

// State is the per-population motion state produced by Model.Bind. A State
// is bound to one position slice layout: agent i's bookkeeping lives at
// index i, and callers must keep indices stable for the population's
// lifetime (mark agents dead rather than compacting slices).
//
// States are not safe for concurrent use; they share the population's
// single randomness stream by design.
type State interface {
	// Place writes the initial position of every agent into pos. Most
	// models place uniformly at random (the paper's initial condition);
	// TraceReplay places agents at the trace's recorded start.
	Place(pos []grid.Point)

	// Step advances every agent one synchronized step, in index order,
	// mutating pos in place.
	Step(pos []grid.Point)

	// StepAgent advances only agent i (the Frog model moves only active
	// agents; the predator engine moves only surviving preys).
	StepAgent(pos []grid.Point, i int)
}

// MovedStepper is the optional State extension implemented by states that
// can report which agents changed position during a synchronized step.
// Engines use it to feed dirty-agent information to incremental per-step
// structures (the visibility kernel's pair cache, coverage's visited set):
// an agent not in the report is guaranteed to stand exactly where it stood
// before the step, so per-agent work keyed on motion can be skipped.
//
// Implementations must advance the population exactly like Step — same
// motion law, same randomness consumption, bit-identical trajectories —
// and derive the report from the realised positions alone (an agent whose
// move was clamped at a boundary, paused, or frozen is NOT moved). States
// without a cheap report simply don't implement the interface; callers
// fall back to Step.
type MovedStepper interface {
	// StepMoved steps every agent like State.Step and appends the indices
	// of agents whose position changed to moved, in ascending order,
	// returning the extended slice.
	StepMoved(pos []grid.Point, moved []int32) []int32
}

// Default returns the model engines fall back to when none is configured:
// the paper's lazy random walk.
func Default() Model { return LazyWalk{} }

// place fills pos with independent uniform positions, drawing X then Y for
// each agent — the exact draw order of the historical placement loop, which
// the bit-for-bit seed-compatibility guarantee depends on.
func place(g *grid.Grid, pos []grid.Point, src *rng.Source) {
	side := g.Side()
	for i := range pos {
		pos[i] = grid.Point{X: int32(src.Intn(side)), Y: int32(src.Intn(side))}
	}
}

// stepAll advances every agent through StepAgent in index order; models
// whose Step has no cross-agent coupling share this loop.
func stepAll(s State, pos []grid.Point) {
	for i := range pos {
		s.StepAgent(pos, i)
	}
}

// stepAllMoved is the generic MovedStepper loop: it advances every agent
// through StepAgent in index order — consuming randomness identically to
// stepAll — and reports moves by comparing each position before and after.
// Models with per-agent freezes or pauses (trace truncation, waypoint rest
// ticks) share it.
func stepAllMoved(s State, pos []grid.Point, moved []int32) []int32 {
	for i := range pos {
		before := pos[i]
		s.StepAgent(pos, i)
		if pos[i] != before {
			moved = append(moved, int32(i))
		}
	}
	return moved
}

// bindCheck validates the arguments common to every Bind implementation.
func bindCheck(name string, g *grid.Grid, k int, src *rng.Source) error {
	if g == nil {
		return fmt.Errorf("mobility: %s: nil grid", name)
	}
	if k <= 0 {
		return fmt.Errorf("mobility: %s: population size must be positive, got %d", name, k)
	}
	if src == nil {
		return fmt.Errorf("mobility: %s: nil randomness source", name)
	}
	return nil
}
