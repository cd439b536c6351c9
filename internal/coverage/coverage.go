// Package coverage measures cover times of multiple independent random
// walks: the first time every grid node has been visited by at least one
// walk. The paper's Section 4 derives the high-probability bound
// O((n log^2 n)/k + n log n), improving earlier expectation-only results;
// Experiment E12 validates the 1/k decay and the n log n floor.
package coverage

import (
	"fmt"

	"mobilenet/internal/bitset"
	"mobilenet/internal/grid"
	"mobilenet/internal/mobility"
	"mobilenet/internal/obs"
	"mobilenet/internal/prof"
	"mobilenet/internal/rng"
	"mobilenet/internal/step"
	"mobilenet/internal/theory"
)

// Config parameterises a cover-time run.
type Config struct {
	// Grid is the arena. Required.
	Grid *grid.Grid
	// Walkers is the number of independent random walks k. Required.
	Walkers int
	// Seed drives placement and motion.
	Seed uint64
	// MaxSteps caps the run; 0 derives a default from the paper's bound
	// with a 64x headroom.
	MaxSteps int
	// RecordCurve enables recording of the covered-node count per step.
	RecordCurve bool
	// Mobility selects the walkers' motion model; nil selects the paper's
	// lazy walk the §4 cover-time bound is proved for.
	Mobility mobility.Model
	// Profile, when non-nil, accumulates per-phase step timings. Coverage
	// runs exercise only the move, spread (visit marking) and observe
	// phases; a nil profile costs a branch per phase.
	Profile *prof.StepProfile
}

func (c *Config) validate() error {
	if c.Grid == nil {
		return fmt.Errorf("coverage: config requires a grid")
	}
	if c.Walkers <= 0 {
		return fmt.Errorf("coverage: walkers must be positive, got %d", c.Walkers)
	}
	if c.MaxSteps < 0 {
		return fmt.Errorf("coverage: negative MaxSteps %d", c.MaxSteps)
	}
	return nil
}

// StepCap resolves the step cap the run is driven under: MaxSteps when
// set, else the paper's cover-time bound with 64x headroom.
func (c *Config) StepCap() int {
	if c.MaxSteps > 0 {
		return c.MaxSteps
	}
	v := int(64 * theory.CoverTimeBound(c.Grid.N(), c.Walkers))
	if v < 4096 {
		v = 4096
	}
	return v
}

// Result summarises a cover-time run.
type Result struct {
	// Steps is the cover time: the first step at which every node has been
	// visited. Valid only when Completed.
	Steps int
	// Completed is false when MaxSteps was reached with nodes unvisited.
	Completed bool
	// Covered is the number of visited nodes at the end.
	Covered int
	// Curve, when requested, holds the covered count after each step
	// (starting with t=0, the initial placement).
	Curve []int
}

// System is a running cover-time measurement: k independent walks marking
// the nodes they visit. It implements step.Engine.
type System struct {
	cfg     Config
	g       *grid.Grid
	mob     mobility.State
	ms      mobility.MovedStepper // nil when the model does not report moves
	pos     []grid.Point
	moved   []int32 // per-step moved-walker scratch, reused
	visited *bitset.Set
	t       int
	curve   []int
}

// New places the walkers (per the configured mobility model, by default
// uniformly at random) and marks their starting nodes visited.
func New(cfg Config) (*System, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	g := cfg.Grid
	k := cfg.Walkers
	model := cfg.Mobility
	if model == nil {
		model = mobility.Default()
	}
	mob, err := model.Bind(g, k, rng.New(cfg.Seed))
	if err != nil {
		return nil, err
	}
	s := &System{cfg: cfg, g: g, mob: mob, pos: make([]grid.Point, k), visited: bitset.New(g.N())}
	// Models that report per-step moves let the visit marking touch only
	// agents that actually moved: an unmoved walker's node was marked the
	// step it arrived. The lazy walk holds ~1/5 of the walkers still each
	// step; trajectories are bit-identical either way.
	if ms, ok := mob.(mobility.MovedStepper); ok {
		s.ms = ms
		s.moved = make([]int32, 0, k)
	}
	mob.Place(s.pos)
	cfg.Profile.Mark()
	s.visit()
	return s, nil
}

// Step advances every walker one tick and marks the nodes reached.
func (s *System) Step() {
	if s.ms != nil {
		s.moved = s.ms.StepMoved(s.pos, s.moved[:0])
	} else {
		s.mob.Step(s.pos)
	}
	s.t++
	s.cfg.Profile.Lap(prof.Move)
	s.visit()
}

// visit marks the walkers' nodes visited — after the first step only the
// walkers that moved, when the model reports moves — and records the
// covered count on the curve.
func (s *System) visit() {
	if s.ms != nil && s.t > 0 {
		for _, i := range s.moved {
			s.visited.Add(int(s.g.ID(s.pos[i])))
		}
	} else {
		for i := range s.pos {
			s.visited.Add(int(s.g.ID(s.pos[i])))
		}
	}
	if s.cfg.RecordCurve {
		s.curve = append(s.curve, s.visited.Len())
	}
	s.cfg.Profile.Lap(prof.Spread)
}

// Done reports whether every node has been visited.
func (s *System) Done() bool { return s.visited.Len() == s.g.N() }

// Time returns the simulation time.
func (s *System) Time() int { return s.t }

// Sample returns the current step's observables: the covered-node count
// as "informed" and the covered fraction as "coverage".
func (s *System) Sample(*obs.Recorder) obs.Sample {
	return obs.Sample{Informed: s.visited.Len(), Covered: s.visited.Len(), Nodes: s.g.N()}
}

// Result reports the run as it stands.
func (s *System) Result() Result {
	return Result{Steps: s.t, Completed: s.Done(), Covered: s.visited.Len(), Curve: s.curve}
}

// Run measures the cover time of k independent lazy random walks started at
// uniformly random nodes, driving the walks to full coverage or the step
// cap.
func Run(cfg Config) (Result, error) {
	s, err := New(cfg)
	if err != nil {
		return Result{}, err
	}
	step.Run(s, step.Hooks{Cap: cfg.StepCap(), Profile: cfg.Profile})
	return s.Result(), nil
}

// FractionTime returns the first step at which the walks have covered at
// least the given fraction of nodes, extracted from a recorded curve; it
// returns -1 when the curve never reaches the fraction.
func FractionTime(curve []int, n int, fraction float64) int {
	if n <= 0 || fraction <= 0 {
		return 0
	}
	target := int(fraction * float64(n))
	if target < 1 {
		target = 1
	}
	for t, c := range curve {
		if c >= target {
			return t
		}
	}
	return -1
}
