// Package predator implements the random predator-prey system from the
// paper's Section 4: k predators and m preys all perform independent lazy
// random walks on the grid; a prey is caught (and removed) whenever it
// shares a node with — or comes within the capture radius of — a predator.
// The extinction time is the first step with no surviving prey. The paper
// derives the high-probability bound O((n log^2 n)/k), validated by
// Experiment E13.
package predator

import (
	"fmt"

	"mobilenet/internal/grid"
	"mobilenet/internal/mobility"
	"mobilenet/internal/obs"
	"mobilenet/internal/prof"
	"mobilenet/internal/rng"
	"mobilenet/internal/step"
	"mobilenet/internal/theory"
)

// Config parameterises a predator-prey run.
type Config struct {
	// Grid is the arena. Required.
	Grid *grid.Grid
	// Predators is the number of predators k. Required, positive.
	Predators int
	// Preys is the number of preys m. Required, positive.
	Preys int
	// Radius is the capture radius (Manhattan); 0 means same-node capture.
	Radius int
	// Seed drives placement and motion.
	Seed uint64
	// MaxSteps caps the run; 0 selects a default derived from the paper's
	// O((n log^2 n)/k) extinction bound with generous headroom.
	MaxSteps int
	// Mobility selects the motion model both predators and preys follow
	// (each species gets its own model state); nil selects the lazy walk.
	Mobility mobility.Model
	// Profile, when non-nil, accumulates per-phase step timings: the
	// spatial-hash rebuild is the index phase and the prey scan the spread
	// phase. A nil profile costs a branch per phase.
	Profile *prof.StepProfile
}

func (c *Config) validate() error {
	if c.Grid == nil {
		return fmt.Errorf("predator: config requires a grid")
	}
	if c.Predators <= 0 {
		return fmt.Errorf("predator: need at least one predator, got %d", c.Predators)
	}
	if c.Preys <= 0 {
		return fmt.Errorf("predator: need at least one prey, got %d", c.Preys)
	}
	if c.Radius < 0 {
		return fmt.Errorf("predator: negative radius %d", c.Radius)
	}
	if c.MaxSteps < 0 {
		return fmt.Errorf("predator: negative MaxSteps %d", c.MaxSteps)
	}
	return nil
}

// StepCap resolves the step cap the run is driven under: MaxSteps when
// set, else the paper's extinction bound with generous headroom.
func (c *Config) StepCap() int {
	if c.MaxSteps > 0 {
		return c.MaxSteps
	}
	v := int(256 * theory.ExtinctionBound(c.Grid.N(), c.Predators))
	if v < 4096 {
		v = 4096
	}
	return v
}

// System is a running predator-prey simulation; it implements step.Engine.
type System struct {
	cfg       Config
	g         *grid.Grid
	src       *rng.Source
	predators []grid.Point
	preys     []grid.Point // all preys; caught ones stay in place, masked out
	preyAlive []bool       // alive mask, index-stable so mobility state stays aligned
	alive     int
	t         int

	predMob mobility.State
	preyMob mobility.State

	// occupied buckets predators by coarse cell for the capture check. When
	// the predator mobility state reports per-step moves, the hash is
	// maintained incrementally — only predators whose cell changed are
	// re-bucketed — instead of being rebuilt from scratch every step.
	occupied  map[uint64][]int32
	pool      [][]int32
	predKey   []uint64 // current bucket key per predator (valid iff hashLive)
	predSlot  []int32  // predator's index within its bucket slice
	predMoved []int32  // per-step moved-predator scratch
	hashLive  bool
}

// New places predators and preys (per the configured mobility model, by
// default uniformly at random) and performs the time-0 capture pass.
func New(cfg Config) (*System, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	src := rng.New(cfg.Seed)
	model := cfg.Mobility
	if model == nil {
		model = mobility.Default()
	}
	predMob, err := model.Bind(cfg.Grid, cfg.Predators, src)
	if err != nil {
		return nil, err
	}
	preyModel := model
	if tr, ok := model.(mobility.TraceReplay); ok {
		// Both species share one recording; without an offset, prey i
		// would replay the same trace agent as predator i and be captured
		// at time 0. Preys take the agent slice after the predators'.
		tr.Offset += cfg.Predators
		preyModel = tr
	}
	preyMob, err := preyModel.Bind(cfg.Grid, cfg.Preys, src)
	if err != nil {
		return nil, err
	}
	s := &System{
		cfg:       cfg,
		g:         cfg.Grid,
		src:       src,
		predators: make([]grid.Point, cfg.Predators),
		preys:     make([]grid.Point, cfg.Preys),
		preyAlive: make([]bool, cfg.Preys),
		alive:     cfg.Preys,
		predMob:   predMob,
		preyMob:   preyMob,
		occupied:  make(map[uint64][]int32, cfg.Predators),
	}
	predMob.Place(s.predators)
	preyMob.Place(s.preys)
	for i := range s.preyAlive {
		s.preyAlive[i] = true
	}
	cfg.Profile.Mark()
	s.capture(nil, false)
	return s, nil
}

// Sample returns the current step's observables: the caught-prey count as
// "informed", the predator system's dissemination-progress analogue.
func (s *System) Sample(*obs.Recorder) obs.Sample {
	return obs.Sample{Informed: s.cfg.Preys - s.alive}
}

func bucketKey(bx, by int32) uint64 {
	return uint64(uint32(bx))<<32 | uint64(uint32(by))
}

// cellSize resolves the capture-hash cell side for the configured radius.
func (s *System) cellSize() int32 {
	cell := int32(s.cfg.Radius)
	if cell < 1 {
		cell = 1
	}
	return cell
}

// insertPredator adds predator i to the bucket for key, recording its slot.
func (s *System) insertPredator(i int32, key uint64) {
	b, ok := s.occupied[key]
	if !ok && len(s.pool) > 0 {
		n := len(s.pool)
		b = s.pool[n-1]
		s.pool = s.pool[:n-1]
	}
	s.predSlot[i] = int32(len(b))
	s.occupied[key] = append(b, i)
	s.predKey[i] = key
}

// removePredator takes predator i out of its current bucket by swap-remove;
// emptied buckets return their backing slice to the pool so the map tracks
// only occupied cells no matter how far the predators roam.
func (s *System) removePredator(i int32) {
	key := s.predKey[i]
	b := s.occupied[key]
	last := len(b) - 1
	slot := s.predSlot[i]
	movedIn := b[last]
	b[slot] = movedIn
	s.predSlot[movedIn] = slot
	b = b[:last]
	if last == 0 {
		s.pool = append(s.pool, b)
		delete(s.occupied, key)
	} else {
		s.occupied[key] = b
	}
}

// rebuildHash derives the predator spatial hash from scratch.
func (s *System) rebuildHash(cell int32) {
	for key, b := range s.occupied {
		s.pool = append(s.pool, b[:0])
		delete(s.occupied, key)
	}
	if s.predKey == nil {
		s.predKey = make([]uint64, len(s.predators))
		s.predSlot = make([]int32, len(s.predators))
	}
	for i := range s.predators {
		s.insertPredator(int32(i), bucketKey(s.predators[i].X/cell, s.predators[i].Y/cell))
	}
	s.hashLive = true
}

// updateHash re-buckets exactly the predators that moved this step.
func (s *System) updateHash(cell int32, moved []int32) {
	for _, i := range moved {
		key := bucketKey(s.predators[i].X/cell, s.predators[i].Y/cell)
		if key == s.predKey[i] {
			continue
		}
		s.removePredator(i)
		s.insertPredator(i, key)
	}
}

// capture removes every prey within the capture radius of some predator.
// moved, when movedOK, lists the predators that changed position since the
// hash was last current, enabling the incremental bucket update.
func (s *System) capture(moved []int32, movedOK bool) {
	if s.alive == 0 {
		s.cfg.Profile.Lap(prof.Spread)
		return
	}
	r := s.cfg.Radius
	cell := s.cellSize()
	if s.hashLive && movedOK {
		s.updateHash(cell, moved)
	} else {
		s.rebuildHash(cell)
	}
	s.cfg.Profile.Lap(prof.Index)
	// Check each surviving prey against predators in its 3x3 cell
	// neighbourhood. Caught preys are masked out rather than compacted so
	// prey indices stay aligned with the mobility state's per-agent
	// bookkeeping (waypoint destinations, trace clocks, ...).
	for qi, p := range s.preys {
		if !s.preyAlive[qi] {
			continue
		}
		bx, by := p.X/cell, p.Y/cell
	scan:
		for dy := int32(-1); dy <= 1; dy++ {
			for dx := int32(-1); dx <= 1; dx++ {
				for _, pi := range s.occupied[bucketKey(bx+dx, by+dy)] {
					if grid.ManhattanPoints(p, s.predators[pi]) <= r {
						s.preyAlive[qi] = false
						s.alive--
						break scan
					}
				}
			}
		}
	}
	s.cfg.Profile.Lap(prof.Spread)
}

// Step advances one time unit: predators and surviving preys all move, then
// captures are resolved. Surviving preys step in index order, which matches
// the relative order the pre-mask compacting implementation used, so
// default-model runs consume randomness identically.
func (s *System) Step() {
	var moved []int32
	movedOK := false
	if ms, ok := s.predMob.(mobility.MovedStepper); ok {
		s.predMoved = ms.StepMoved(s.predators, s.predMoved[:0])
		moved, movedOK = s.predMoved, true
	} else {
		s.predMob.Step(s.predators)
	}
	for i := range s.preys {
		if s.preyAlive[i] {
			s.preyMob.StepAgent(s.preys, i)
		}
	}
	s.t++
	s.cfg.Profile.Lap(prof.Move)
	s.capture(moved, movedOK)
}

// Done reports whether all preys are extinct.
func (s *System) Done() bool { return s.alive == 0 }

// Time returns the simulation time.
func (s *System) Time() int { return s.t }

// Alive returns the number of surviving preys.
func (s *System) Alive() int { return s.alive }

// Result summarises a predator-prey run.
type Result struct {
	// Steps is the extinction time. Valid only when Completed.
	Steps int
	// Completed is false when MaxSteps was reached with preys surviving.
	Completed bool
	// Survivors is the number of preys alive at the end (0 when Completed).
	Survivors int
}

// Result reports the run as it stands.
func (s *System) Result() Result {
	return Result{Steps: s.t, Completed: s.Done(), Survivors: s.alive}
}

// Run drives the system until extinction or the step cap.
func (s *System) Run() Result {
	step.Run(s, step.Hooks{Cap: s.cfg.StepCap(), Profile: s.cfg.Profile})
	return s.Result()
}

// RunExtinction is the one-shot convenience wrapper.
func RunExtinction(cfg Config) (Result, error) {
	s, err := New(cfg)
	if err != nil {
		return Result{}, err
	}
	return s.Run(), nil
}
