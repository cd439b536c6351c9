// Package frog implements the Frog model variant discussed in the paper's
// related work and Section 4: initially a single agent (the source) is
// active and informed while all other agents sleep at their initial
// positions; whenever an active agent comes within the transmission radius
// of a sleeping agent, the sleeper wakes, learns the rumor and starts its
// own random walk. The paper shows the same Θ̃(n/√k) broadcast-time bounds
// hold in this model (Section 4), which Experiment E10 validates.
package frog

import (
	"fmt"

	"mobilenet/internal/agent"
	"mobilenet/internal/bitset"
	"mobilenet/internal/grid"
	"mobilenet/internal/mobility"
	"mobilenet/internal/obs"
	"mobilenet/internal/prof"
	"mobilenet/internal/rng"
	"mobilenet/internal/step"
	"mobilenet/internal/theory"
	"mobilenet/internal/visibility"
)

// Config parameterises a Frog-model run.
type Config struct {
	// Grid is the arena. Required.
	Grid *grid.Grid
	// K is the total number of agents (one initially active). Required.
	K int
	// Radius is the wake-up radius; 0 means physical co-location, the
	// classical Frog model.
	Radius int
	// Seed drives placement and motion.
	Seed uint64
	// Source is the initially active agent, or core-style -1 for random.
	Source int
	// MaxSteps caps the run; 0 selects the same generous default used by
	// the dynamic model.
	MaxSteps int
	// Mobility selects the motion model active agents follow; nil selects
	// the paper's lazy walk. Sleepers stay frozen regardless of model.
	Mobility mobility.Model
	// Parallelism sets the component labeller's worker count (0 = automatic,
	// 1 = sequential); results are identical at every setting.
	Parallelism int
	// Profile, when non-nil, accumulates per-phase step timings (see
	// core.Config.Profile); a nil profile costs only a branch per phase.
	Profile *prof.StepProfile
}

func (c *Config) validate() error {
	if c.Grid == nil {
		return fmt.Errorf("frog: config requires a grid")
	}
	if c.K <= 0 {
		return fmt.Errorf("frog: K must be positive, got %d", c.K)
	}
	if c.Radius < 0 {
		return fmt.Errorf("frog: negative radius %d", c.Radius)
	}
	if c.Source != -1 && (c.Source < 0 || c.Source >= c.K) {
		return fmt.Errorf("frog: source %d out of range [0,%d)", c.Source, c.K)
	}
	if c.MaxSteps < 0 {
		return fmt.Errorf("frog: negative MaxSteps %d", c.MaxSteps)
	}
	if c.Parallelism < 0 {
		return fmt.Errorf("frog: negative Parallelism %d", c.Parallelism)
	}
	return nil
}

// StepCap resolves the step cap the run is driven under: MaxSteps when
// set, else the same generous default the dynamic model uses.
func (c *Config) StepCap() int {
	if c.MaxSteps > 0 {
		return c.MaxSteps
	}
	n := c.Grid.N()
	scale := theory.BroadcastScale(n, c.K)
	v := int(64 * scale * 16)
	if v < 4096 {
		v = 4096
	}
	return v
}

// newLabeller builds the wake-up labeller with the configured parallelism
// and profiler. Frog runs get the incremental kernel: sleepers are frozen,
// so on a typical step only the active minority moves and the dirty-cell
// path shines.
func newLabeller(cfg *Config) *visibility.Incremental {
	l := visibility.NewIncremental(cfg.K)
	l.SetParallelism(cfg.Parallelism)
	l.SetProfile(cfg.Profile)
	return l
}

// System is a running Frog-model simulation; it implements step.Engine.
type System struct {
	cfg    Config
	pop    *agent.Population
	lab    *visibility.Incremental
	active *bitset.Set // active (= informed) agents
	newly  []int32     // per-step newly-woken scratch, reused

	sizeScratch []int32 // component-size buffer for the largest observable
}

// New places the population and wakes the source's component: sleepers
// within the wake-up radius chain at time 0 exactly as in the dynamic model.
func New(cfg Config) (*System, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	src := rng.New(cfg.Seed)
	pop, err := agent.NewWithModel(cfg.Grid, cfg.K, src, cfg.Mobility)
	if err != nil {
		return nil, err
	}
	s := &System{
		cfg:    cfg,
		pop:    pop,
		lab:    newLabeller(&cfg),
		active: bitset.New(cfg.K),
		newly:  make([]int32, 0, cfg.K),
	}
	source := cfg.Source
	if source == -1 {
		source = src.Intn(cfg.K)
	}
	s.active.Add(source)
	cfg.Profile.Mark()
	s.wake()
	return s, nil
}

// wake activates every sleeping agent in the same visibility component as
// an active agent. Chained wake-ups (sleeper A wakes sleeper B through
// proximity) are intentional: the rumor floods the whole component, per the
// paper's radio-faster-than-motion assumption. The wake-ups flood the
// active bitset straight through the union-find forest, no labels
// materialised; once everyone is active there is nothing left to wake.
func (s *System) wake() {
	if s.active.Len() < s.pop.K() {
		s.newly = s.lab.Flood(s.pop.Positions(), s.cfg.Radius, s.active, s.newly[:0])
	}
	s.cfg.Profile.Lap(prof.Spread)
}

// Step advances one time unit: active agents walk, sleepers stay, then
// wake-ups propagate.
func (s *System) Step() {
	// Ascending agent-index order is part of the seed contract: StepAgent
	// draws from the shared randomness stream, so the iteration order must
	// match the pre-bitset []bool loop bit for bit.
	k := s.pop.K()
	for i := 0; i < k; i++ {
		if s.active.Contains(i) {
			s.pop.StepAgent(i)
		}
	}
	s.pop.Tick()
	s.cfg.Profile.Lap(prof.Move)
	s.wake()
}

// Sample returns the current step's observables: the active count as
// "informed", plus the component census when rec requests it (labelled on
// demand, also after the last sleeper woke).
func (s *System) Sample(rec *obs.Recorder) obs.Sample {
	smp := obs.Sample{Informed: s.active.Len()}
	if rec.NeedsComponents() {
		if s.sizeScratch == nil {
			s.sizeScratch = make([]int32, 0, s.pop.K())
		}
		labels, count := s.lab.Components(s.pop.Positions(), s.cfg.Radius)
		smp.Components = count
		smp.Largest, s.sizeScratch = visibility.MaxSizeScratch(labels, count, s.sizeScratch)
	}
	return smp
}

// Done reports whether every agent is active (equivalently, informed).
func (s *System) Done() bool { return s.active.Len() == s.pop.K() }

// Time returns the simulation time.
func (s *System) Time() int { return s.pop.Time() }

// ActiveCount returns the number of active agents.
func (s *System) ActiveCount() int { return s.active.Len() }

// Active reports whether agent i is active.
func (s *System) Active(i int) bool { return s.active.Contains(i) }

// Result summarises a Frog-model run.
type Result struct {
	// Steps is the Frog-model broadcast time. Valid only when Completed.
	Steps int
	// Completed is false when MaxSteps was reached first.
	Completed bool
}

// Result reports the run as it stands.
func (s *System) Result() Result {
	return Result{Steps: s.pop.Time(), Completed: s.Done()}
}

// Run drives the system until all agents are active or the cap is reached.
func (s *System) Run() Result {
	step.Run(s, step.Hooks{Cap: s.cfg.StepCap(), Profile: s.cfg.Profile})
	return s.Result()
}

// RunFrog is the one-shot convenience wrapper.
func RunFrog(cfg Config) (Result, error) {
	s, err := New(cfg)
	if err != nil {
		return Result{}, err
	}
	return s.Run(), nil
}
