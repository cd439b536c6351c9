package mobility

import (
	"mobilenet/internal/grid"
	"mobilenet/internal/rng"
	"mobilenet/internal/walk"
)

// Torus is the boundary ablation (experiment X7): walk.TorusStep per
// agent, in index order. Every node has four neighbours, so the walk stays
// put with probability exactly 1/5 everywhere and the uniform distribution
// is stationary.
type Torus struct{}

// Name implements Model.
func (Torus) Name() string { return "torus" }

// UniformStationary implements Model.
func (Torus) UniformStationary() bool { return true }

// Bind implements Model.
func (m Torus) Bind(g *grid.Grid, k int, src *rng.Source) (State, error) {
	return bindKernel(m.Name(), g, k, src, walk.TorusStep)
}

// Simple is the laziness ablation (experiment X3): walk.SimpleStep per
// agent, in index order. Every step moves, so two agents of opposite
// coordinate parity never share a node. It is not uniform-stationary,
// because boundary nodes have fewer neighbours. No spec names it.
type Simple struct{}

// Name implements Model.
func (Simple) Name() string { return "simple" }

// UniformStationary implements Model.
func (Simple) UniformStationary() bool { return false }

// Bind implements Model.
func (m Simple) Bind(g *grid.Grid, k int, src *rng.Source) (State, error) {
	return bindKernel(m.Name(), g, k, src, walk.SimpleStep)
}

func bindKernel(name string, g *grid.Grid, k int, src *rng.Source, step func(*grid.Grid, grid.Point, *rng.Source) grid.Point) (State, error) {
	if err := bindCheck(name, g, k, src); err != nil {
		return nil, err
	}
	return &kernelState{g: g, src: src, step: step}, nil
}

// kernelState places agents uniformly and steps each through one
// single-agent walk kernel, in index order.
type kernelState struct {
	g    *grid.Grid
	src  *rng.Source
	step func(*grid.Grid, grid.Point, *rng.Source) grid.Point
}

func (s *kernelState) Place(pos []grid.Point) { place(s.g, pos, s.src) }

func (s *kernelState) Step(pos []grid.Point) { stepAll(s, pos) }

func (s *kernelState) StepAgent(pos []grid.Point, i int) { pos[i] = s.step(s.g, pos[i], s.src) }

// StepMoved implements MovedStepper with the generic loop, which draws
// exactly like Step.
func (s *kernelState) StepMoved(pos []grid.Point, moved []int32) []int32 {
	return stepAllMoved(s, pos, moved)
}

// Async is the synchrony ablation (experiment X8), the lazy walk under
// random sequential updates: one step is k rounds, each drawing an agent
// with Intn(k) and moving it one walk.Step. Every agent moves once per step
// in expectation, and each move keeps the uniform distribution stationary.
//
// StepAgent moves agent i once, so frog's active agents and predator's
// preys see the plain lazy walk under Async. Async has no StepMoved: the
// generic per-index loop would run the synchronous walk instead.
type Async struct{}

// Name implements Model.
func (Async) Name() string { return "async" }

// UniformStationary implements Model.
func (Async) UniformStationary() bool { return true }

// Bind implements Model.
func (m Async) Bind(g *grid.Grid, k int, src *rng.Source) (State, error) {
	if err := bindCheck(m.Name(), g, k, src); err != nil {
		return nil, err
	}
	return &asyncState{g: g, src: src}, nil
}

type asyncState struct {
	g   *grid.Grid
	src *rng.Source
}

func (s *asyncState) Place(pos []grid.Point) { place(s.g, pos, s.src) }

func (s *asyncState) Step(pos []grid.Point) {
	for range pos {
		s.StepAgent(pos, s.src.Intn(len(pos)))
	}
}

func (s *asyncState) StepAgent(pos []grid.Point, i int) { pos[i] = walk.Step(s.g, pos[i], s.src) }
