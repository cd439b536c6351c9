package core

import (
	"mobilenet/internal/agent"
	"mobilenet/internal/bitset"
	"mobilenet/internal/grid"
	"mobilenet/internal/obs"
	"mobilenet/internal/prof"
	"mobilenet/internal/rng"
	"mobilenet/internal/step"
	"mobilenet/internal/visibility"
)

// Broadcast simulates the spread of a single rumor from one source agent to
// the whole population. Construct with NewBroadcast, then either call Run
// for the full simulation or drive it through a step.Driver; it implements
// step.Engine.
type Broadcast struct {
	cfg Config
	pop *agent.Population
	lab *visibility.Incremental

	// informed is the informed set as a bitset; the spread path floods it
	// directly through the labeller's union-find roots (visibility.Flood),
	// so ordinary steps never materialise component labels.
	informed *bitset.Set
	newly    []int32 // per-step newly-informed scratch, reused
	moved    []int32 // per-step moved-agent scratch, reused
	src      int

	area      *bitset.Set // informed area I(t); nil unless tracked
	frontierX int32       // rightmost x of the informed area; -1 untracked

	curve []int

	cells      *cellTracker // Theorem 1 tessellation bookkeeping; nil when off
	sourceCell int

	informedStep int // T_B, first step with every agent informed; -1 until then
	coverageStep int // first step with |I(t)| = n; -1 until then

	sizeScratch []int32 // component-size buffer for the largest observable
}

// NewBroadcast validates cfg, places the population and performs the time-0
// rumor exchange (the rumor floods the source's component of G_0(r) before
// anyone moves, per the paper's model).
func NewBroadcast(cfg Config) (*Broadcast, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	src := rng.New(cfg.Seed)
	pop, err := agent.NewWithModel(cfg.Grid, cfg.K, src, cfg.Mobility)
	if err != nil {
		return nil, err
	}
	for i, p := range cfg.Placement {
		pop.SetPosition(i, p)
	}
	b := &Broadcast{
		cfg:          cfg,
		pop:          pop,
		lab:          cfg.newLabeller(),
		informed:     bitset.New(cfg.K),
		newly:        make([]int32, 0, cfg.K),
		moved:        make([]int32, 0, cfg.K),
		informedStep: -1,
		coverageStep: -1,
		frontierX:    -1,
	}
	b.src = cfg.Source
	if b.src == SourceRandom {
		b.src = src.Intn(cfg.K)
	}
	b.informed.Add(b.src)
	if cfg.TrackInformedArea {
		b.area = bitset.New(cfg.Grid.N())
	}
	if cfg.CellSide > 0 {
		b.cells = newCellTracker(cfg.Grid, cfg.CellSide)
		b.sourceCell = int(b.cells.tess.CellOf(pop.Position(b.src)))
	}
	// Time-0 exchange on the initial configuration. The mark anchors the
	// profiler so the time-0 flood is attributed like any step (the
	// labeller laps index/label internally). No moved report exists yet, so
	// the area trackers take their one full pass here.
	cfg.Profile.Mark()
	b.exchange(nil, false)
	return b, nil
}

// exchange floods the rumor through the connected components of the current
// visibility graph, updates the informed-area trackers and appends the
// recorded curves.
//
// The flood never materialises component labels: visibility.Flood spreads
// the informed bitset directly over the labeller's union-find forest,
// returning the newly informed agents. Component work is skipped entirely
// once everyone is informed (the coverage-continuation phase only needs
// positions); the component observables label on demand in Sample.
//
// moved, when movedOK, lists exactly the agents whose position changed in
// the step that preceded this exchange; the area trackers then update from
// moved agents and newly informed agents only, instead of sweeping the
// whole informed set. An informed agent that did not move contributed its
// node the moment it became informed or last moved, so the sweep adds
// nothing new — the t=0 full pass anchors the induction.
func (b *Broadcast) exchange(moved []int32, movedOK bool) {
	k := b.pop.K()
	b.newly = b.newly[:0]
	if b.informed.Len() < k {
		b.newly = b.lab.Flood(b.pop.Positions(), b.cfg.Radius, b.informed, b.newly)
	}
	if b.informedStep < 0 && b.informed.Len() == k {
		b.informedStep = b.pop.Time()
	}
	if b.area != nil {
		g := b.pop.Grid()
		pos := b.pop.Positions()
		if movedOK {
			// Incremental area update: only a moved informed agent or a
			// newly informed one can stand on a node the area lacks.
			for _, i := range moved {
				if b.informed.Contains(int(i)) {
					b.touchArea(g, pos[i])
				}
			}
			for _, i := range b.newly {
				b.touchArea(g, pos[i])
			}
		} else {
			b.sweepArea()
		}
		if b.coverageStep < 0 && b.area.Len() == g.N() {
			b.coverageStep = b.pop.Time()
		}
	}
	if b.cells != nil && !b.cells.allReached() {
		t := b.pop.Time()
		pos := b.pop.Positions()
		if movedOK {
			for _, i := range moved {
				if b.informed.Contains(int(i)) {
					b.cells.observe(pos[i], t)
				}
			}
			for _, i := range b.newly {
				b.cells.observe(pos[i], t)
			}
		} else {
			for i := 0; i < k; i++ {
				if b.informed.Contains(i) {
					b.cells.observe(pos[i], t)
				}
			}
		}
	}
	// Everything since the labeller's label lap (or the step's move lap
	// when labelling was skipped) is dissemination work. The curve appends
	// below fall to the driver's observe lap; the curves end at T_B, so the
	// coverage continuation appends nothing.
	b.cfg.Profile.Lap(prof.Spread)
	if b.cfg.RecordCurve && (b.informedStep < 0 || b.informedStep == b.pop.Time()) {
		b.curve = append(b.curve, b.informed.Len())
	}
}

// sweepArea adds every informed agent's node to the informed area: the full
// pass that anchors the incremental updates.
func (b *Broadcast) sweepArea() {
	g := b.pop.Grid()
	pos := b.pop.Positions()
	for i := range pos {
		if b.informed.Contains(i) {
			b.touchArea(g, pos[i])
		}
	}
}

// touchArea adds one agent position to the informed area and advances the
// frontier.
func (b *Broadcast) touchArea(g *grid.Grid, p grid.Point) {
	b.area.Add(int(g.ID(p)))
	if p.X > b.frontierX {
		b.frontierX = p.X
	}
}

// Step advances the system one time unit: all agents move synchronously,
// then rumors flood the new components. Models that report per-step moves
// feed the incremental area trackers; the trajectory is bit-identical
// either way (see agent.Population.StepMoved).
func (b *Broadcast) Step() {
	moved, ok := b.pop.StepMoved(b.moved[:0])
	b.moved = moved
	b.cfg.Profile.Lap(prof.Move)
	b.exchange(moved, ok)
}

// Done reports whether the run is over: every agent is informed and, when
// the run measures the coverage time T_C (Config.TrackInformedArea), the
// informed area covers the grid and, when it tessellates the grid
// (Config.CellSide), an informed agent has reached every cell. Those
// continuations past full dissemination are keyed on the config alone:
// the coverage and frontier observables track the area too, but never
// change when a run ends.
func (b *Broadcast) Done() bool {
	return b.informedStep >= 0 && (b.coverageStep >= 0 || !b.cfg.TrackInformedArea) &&
		(b.cells == nil || b.cells.allReached())
}

// Sample returns the current step's observables. The component observables
// label G_t(r) on demand, only when rec requests them. The coverage and
// frontier observables track the informed area from time 0 — the driver
// samples time 0 before the first step — even when the run does not
// measure T_C.
func (b *Broadcast) Sample(rec *obs.Recorder) obs.Sample {
	if b.area == nil && b.pop.Time() == 0 && (rec.NeedsCoverage() || rec.Needs(obs.Frontier)) {
		b.area = bitset.New(b.pop.Grid().N())
		b.sweepArea()
	}
	s := obs.Sample{Informed: b.informed.Len(), Nodes: b.pop.Grid().N(), Frontier: int(b.frontierX)}
	if b.area != nil {
		s.Covered = b.area.Len()
	}
	if rec.NeedsComponents() {
		if b.sizeScratch == nil {
			b.sizeScratch = make([]int32, 0, b.pop.K())
		}
		labels, count := b.lab.Components(b.pop.Positions(), b.cfg.Radius)
		s.Components = count
		s.Largest, b.sizeScratch = visibility.MaxSizeScratch(labels, count, b.sizeScratch)
	}
	return s
}

// Time returns the current simulation time.
func (b *Broadcast) Time() int { return b.pop.Time() }

// InformedCount returns the number of informed agents.
func (b *Broadcast) InformedCount() int { return b.informed.Len() }

// Informed reports whether agent i knows the rumor.
func (b *Broadcast) Informed(i int) bool { return b.informed.Contains(i) }

// SourceAgent returns the index of the source agent.
func (b *Broadcast) SourceAgent() int { return b.src }

// Population exposes the underlying population (read-only use expected).
func (b *Broadcast) Population() *agent.Population { return b.pop }

// InformedArea returns the number of grid nodes in I(t), or 0 when area
// tracking is disabled.
func (b *Broadcast) InformedArea() int {
	if b.area == nil {
		return 0
	}
	return b.area.Len()
}

// BroadcastResult summarises a completed (or capped) broadcast run.
type BroadcastResult struct {
	// Steps is the broadcast time T_B: the first time step at which every
	// agent is informed. Valid only when Completed.
	Steps int
	// Completed is false when the run hit MaxSteps before full dissemination.
	Completed bool
	// Source is the index of the source agent.
	Source int
	// InformedCurve holds the informed count after each step from t=0 up to
	// Steps (present only with Config.RecordCurve).
	InformedCurve []int
	// CoverageSteps is T_C, the first time the informed area covers every
	// grid node; -1 if not reached or not tracked.
	CoverageSteps int
}

// Result reports the run as it stands: T_B once every agent is informed
// (the current time otherwise), the recorded curves and, when the run
// measures it, T_C.
func (b *Broadcast) Result() BroadcastResult {
	res := BroadcastResult{
		Steps:         b.pop.Time(),
		Completed:     b.informedStep >= 0,
		Source:        b.src,
		InformedCurve: b.curve,
		CoverageSteps: -1,
	}
	if res.Completed {
		res.Steps = b.informedStep
	}
	if b.cfg.TrackInformedArea {
		res.CoverageSteps = b.coverageStep
	}
	return res
}

// Run drives the broadcast to completion (or the step cap) through the
// step driver and returns the result. When Config.TrackInformedArea is set,
// the run continues after full information until the grid is covered (to
// measure T_C), and when Config.CellSide is set until every cell is
// reached, still subject to the step cap.
func (b *Broadcast) Run() BroadcastResult {
	step.Run(b, step.Hooks{Cap: b.cfg.StepCap(), Profile: b.cfg.Profile})
	return b.Result()
}

// RunBroadcast is the one-shot convenience wrapper used by most experiments.
func RunBroadcast(cfg Config) (BroadcastResult, error) {
	b, err := NewBroadcast(cfg)
	if err != nil {
		return BroadcastResult{}, err
	}
	return b.Run(), nil
}

// distanceToAll returns the Manhattan distance from the source agent to the
// farthest agent at time 0; exposed through helper for the Theorem 2
// geometry experiment (E17).
func distanceToAll(g *grid.Grid, pos []grid.Point, from int) int {
	best := 0
	for i := range pos {
		if i == from {
			continue
		}
		if d := grid.ManhattanPoints(pos[from], pos[i]); d > best {
			best = d
		}
	}
	return best
}

// InitialSpread places a fresh population per cfg and returns the distance
// from the source to the farthest agent, without running the simulation.
// This isolates the geometric premise of Theorem 2: with probability
// 1 - 2^-(k-1) some agent starts at distance >= sqrt(n)/2 from the source.
func InitialSpread(cfg Config) (int, error) {
	if err := cfg.validate(); err != nil {
		return 0, err
	}
	src := rng.New(cfg.Seed)
	pop, err := agent.New(cfg.Grid, cfg.K, src)
	if err != nil {
		return 0, err
	}
	s := cfg.Source
	if s == SourceRandom {
		s = src.Intn(cfg.K)
	}
	return distanceToAll(cfg.Grid, pop.Positions(), s), nil
}
