package experiments

import (
	"fmt"

	"mobilenet/internal/grid"
	"mobilenet/internal/rng"
	"mobilenet/internal/visibility"
)

// kernelRun is the r = 0 broadcast the ablations X3, X7 and X8 run outside
// the engines, so that the step kernel or the update schedule can be
// swapped: k agents placed uniformly from the run's own source, agent 0
// informed, and the rumor flooding each component of G_t(0) after every
// move.
type kernelRun struct {
	src      *rng.Source
	pos      []grid.Point
	informed []bool
	n        int // informed count
	lab      *visibility.Labeller
	compInf  []bool // per-component scratch
}

// newKernelRun places the agents and performs the time-0 exchange.
func newKernelRun(g *grid.Grid, k int, seed uint64) *kernelRun {
	r := &kernelRun{
		src:      rng.New(seed),
		pos:      make([]grid.Point, k),
		informed: make([]bool, k),
		n:        1,
		lab:      visibility.NewLabeller(k),
	}
	for i := range r.pos {
		r.pos[i] = grid.Point{X: int32(r.src.Intn(g.Side())), Y: int32(r.src.Intn(g.Side()))}
	}
	r.informed[0] = true
	r.exchange()
	return r
}

// exchange informs every agent that shares a node with an informed one.
func (r *kernelRun) exchange() {
	if r.n == len(r.pos) {
		return
	}
	labels, count := r.lab.Components(r.pos, 0)
	if cap(r.compInf) < count {
		r.compInf = make([]bool, count)
	}
	compInf := r.compInf[:count]
	clear(compInf)
	for i, inf := range r.informed {
		if inf {
			compInf[labels[i]] = true
		}
	}
	for i := range r.informed {
		if !r.informed[i] && compInf[labels[i]] {
			r.informed[i] = true
			r.n++
		}
	}
}

// kernelBroadcast runs the r = 0 broadcast with every agent taking one
// stepFn step per time unit, until every agent is informed or stepCap
// steps have passed. It returns the steps taken, which is the broadcast
// time when informed == k, and the informed count.
func kernelBroadcast(g *grid.Grid, k int, stepFn func(*grid.Grid, grid.Point, *rng.Source) grid.Point, seed uint64, stepCap int) (steps, informed int) {
	r := newKernelRun(g, k, seed)
	for ; steps < stepCap && r.n < k; steps++ {
		for i := range r.pos {
			r.pos[i] = stepFn(g, r.pos[i], r.src)
		}
		r.exchange()
	}
	return steps, r.n
}

// kernelTime adapts kernelBroadcast to a replicate function: the broadcast
// time, or an error when the cap ended the run first.
func kernelTime(g *grid.Grid, k int, stepFn func(*grid.Grid, grid.Point, *rng.Source) grid.Point, stepCap int) func(seed uint64) (float64, error) {
	return func(seed uint64) (float64, error) {
		steps, informed := kernelBroadcast(g, k, stepFn, seed, stepCap)
		if informed < k {
			return 0, fmt.Errorf("experiments: kernel broadcast hit cap %d with %d/%d informed", stepCap, informed, k)
		}
		return float64(steps), nil
	}
}
