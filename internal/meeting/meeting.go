// Package meeting estimates the two probabilistic primitives at the heart
// of the paper's upper-bound proof:
//
//   - Lemma 1 (hitting): a walk started at v0 visits a node v at distance d
//     within d^2 steps with probability at least c1/max{1, log d}.
//   - Lemma 3 (meeting): two independent walks started at distance d meet,
//     within d^2 steps, at a node of the lens D (the set of nodes within
//     distance d of both starting points), with probability at least
//     c3/max{1, log d}.
//
// Experiments E6 and E7 sweep d and verify that the measured probability
// times log d stays bounded below by a positive constant.
package meeting

import (
	"fmt"

	"mobilenet/internal/grid"
	"mobilenet/internal/obs"
	"mobilenet/internal/prof"
	"mobilenet/internal/rng"
	"mobilenet/internal/step"
	"mobilenet/internal/walk"
)

// Trial describes one meeting/hitting estimation setting.
type Trial struct {
	// Distance is the initial separation d >= 1 between the walks (or
	// between walker and target).
	Distance int
	// Trials is the number of independent Monte-Carlo repetitions.
	Trials int
	// Seed drives all randomness.
	Seed uint64
	// Horizon overrides the number of steps (default d^2 per the lemmas).
	Horizon int
}

func (t *Trial) validate() error {
	if t.Distance < 1 {
		return fmt.Errorf("meeting: distance must be >= 1, got %d", t.Distance)
	}
	if t.Trials < 1 {
		return fmt.Errorf("meeting: trials must be >= 1, got %d", t.Trials)
	}
	if t.Horizon < 0 {
		return fmt.Errorf("meeting: negative horizon %d", t.Horizon)
	}
	return nil
}

func (t *Trial) horizon() int {
	if t.Horizon > 0 {
		return t.Horizon
	}
	return t.Distance * t.Distance
}

// ArenaSide returns the side of the arena a distance-d trial runs on: 6d,
// floored at 8, so boundary reflection does not dominate at scale d. The
// scenario layer uses it to canonicalise the realised grid of a "meeting"
// spec without duplicating the geometry.
func ArenaSide(d int) int {
	side := 6 * d
	if side < 8 {
		side = 8
	}
	return side
}

// arena builds the ArenaSide grid with the two start nodes centred and
// horizontally separated by d.
func arena(d int) (*grid.Grid, grid.Point, grid.Point) {
	g := grid.MustNew(ArenaSide(d))
	c := g.Center()
	a := grid.Point{X: c.X - int32(d)/2, Y: c.Y}
	b := grid.Point{X: a.X + int32(d), Y: c.Y}
	return g, a, b
}

// Pair is one Lemma 3 meeting trial as a state machine: two synchronized
// walks start at separation d on the ArenaSide(d) arena, and the trial is
// done once they share a node of the lens D. Drive it under a step cap of
// Horizon() steps; when the cap ends the run first, the walks never met.
// One trial is the unit of work the scenario layer's "meeting" engine
// schedules per replicate, so a whole probability estimate is just a
// multi-rep spec. Pair implements step.Engine and step.Terminal: the
// meeting step is always recorded, cadence or not, because a series whose
// last sample still reads 0 would misreport the trial.
type Pair struct {
	g       *grid.Grid
	a0, b0  grid.Point
	d       int
	horizon int
	src     *rng.Source
	prof    *prof.StepProfile

	// The two walkers advance through the batched stepper so the step
	// reports which of them actually moved: a step where neither moved
	// cannot change the meeting predicate (had they met, the trial would
	// already be done), so the lens check is skipped. The stream is
	// bit-identical to the scalar two-call form (see walk.StepAllMoved).
	pair  [2]grid.Point
	ubuf  [2]uint64
	moved [2]int32

	t   int
	met bool
}

// NewPair starts a trial at separation d under the given seed; horizon is
// the step bound (d^2 when 0). p, when non-nil, is charged the move phase
// (the walk advances) and the spread phase (the lens check).
func NewPair(d int, seed uint64, horizon int, p *prof.StepProfile) (*Pair, error) {
	if d < 1 {
		return nil, fmt.Errorf("meeting: distance must be >= 1, got %d", d)
	}
	if horizon < 0 {
		return nil, fmt.Errorf("meeting: negative horizon %d", horizon)
	}
	if horizon == 0 {
		horizon = d * d
	}
	g, a0, b0 := arena(d)
	m := &Pair{g: g, a0: a0, b0: b0, d: d, horizon: horizon, src: rng.New(seed), prof: p,
		pair: [2]grid.Point{a0, b0}}
	p.Mark()
	return m, nil
}

// Horizon returns the trial's step bound: the cap to drive it under.
func (m *Pair) Horizon() int { return m.horizon }

// Step advances both walks one tick and checks for a lens meeting.
func (m *Pair) Step() {
	moved := walk.StepAllMoved(m.g, m.pair[:], m.ubuf[:], m.src, m.moved[:0])
	m.t++
	m.prof.Lap(prof.Move)
	a, b := m.pair[0], m.pair[1]
	m.met = len(moved) > 0 && a == b && inLens(a, m.a0, m.b0, m.d)
	m.prof.Lap(prof.Spread)
}

// Done reports whether the walks have met in the lens.
func (m *Pair) Done() bool { return m.met }

// Time returns the number of steps taken.
func (m *Pair) Time() int { return m.t }

// Sample returns the 0/1 "has met in the lens by this step" indicator.
func (m *Pair) Sample(*obs.Recorder) obs.Sample { return obs.Sample{Met: m.met} }

// SampleEnd reports that the meeting step is recorded off the cadence too.
func (m *Pair) SampleEnd() bool { return true }

var _ step.Terminal = (*Pair)(nil)

// MeetingProbability estimates P(∃ t <= T: a_t = b_t ∈ D) of Lemma 3 for
// two walks with initial separation d and T = d^2 (or the configured
// horizon). It returns the fraction of trials in which the walks met at a
// node of the lens D within the horizon. Each trial is one Pair — the
// same unit the scenario layer's "meeting" engine schedules — under a seed
// drawn from the trial's master stream, so there is exactly one
// implementation of the trial physics.
func MeetingProbability(tr Trial) (float64, error) {
	if err := tr.validate(); err != nil {
		return 0, err
	}
	master := rng.New(tr.Seed)
	hits := 0
	for i := 0; i < tr.Trials; i++ {
		m, err := NewPair(tr.Distance, master.Uint64(), tr.horizon(), nil)
		if err != nil {
			return 0, err
		}
		if step.Run(m, step.Hooks{Cap: m.Horizon()}).Completed {
			hits++
		}
	}
	return float64(hits) / float64(tr.Trials), nil
}

// inLens reports whether p lies in D: within distance d of both starts.
func inLens(p, a0, b0 grid.Point, d int) bool {
	return grid.ManhattanPoints(p, a0) <= d && grid.ManhattanPoints(p, b0) <= d
}

// HittingProbability estimates Lemma 1's quantity: the probability that a
// walk started at v0 visits a fixed target node at distance d within d^2
// steps (or the configured horizon).
func HittingProbability(tr Trial) (float64, error) {
	if err := tr.validate(); err != nil {
		return 0, err
	}
	d := tr.Distance
	g, v0, target := arena(d)
	horizon := tr.horizon()
	master := rng.New(tr.Seed)
	hits := 0
	for i := 0; i < tr.Trials; i++ {
		src := master.Split()
		p := v0
		for t := 1; t <= horizon; t++ {
			p = walk.Step(g, p, src)
			if p == target {
				hits++
				break
			}
		}
	}
	return float64(hits) / float64(tr.Trials), nil
}
