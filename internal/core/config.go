// Package core implements the paper's information-dissemination process:
// k agents perform independent lazy random walks on an n-node grid, and at
// every time step each rumor floods the entire connected component of the
// visibility graph G_t(r) containing an informed agent. The package
// measures the quantities the paper's theorems bound — the broadcast time
// T_B, the gossip time T_G, the coverage time T_C, and the informed-area
// frontier of the Theorem 2 lower-bound argument.
package core

import (
	"fmt"
	"math"

	"mobilenet/internal/grid"
	"mobilenet/internal/mobility"
	"mobilenet/internal/prof"
	"mobilenet/internal/theory"
	"mobilenet/internal/visibility"
)

// SourceRandom selects a uniformly random source agent in Config.Source.
const SourceRandom = -1

// Config parameterises a dissemination run.
type Config struct {
	// Grid is the arena. Required.
	Grid *grid.Grid
	// K is the number of agents. Required, positive.
	K int
	// Radius is the transmission radius r >= 0 in Manhattan distance.
	Radius int
	// Seed drives all randomness of the run (placement and motion).
	Seed uint64
	// Source is the index of the initially informed agent, or SourceRandom.
	// Only used by broadcast (gossip starts every agent with its own rumor).
	Source int
	// MaxSteps caps the simulation length; 0 selects a generous default of
	// 64 * (n/sqrt(k)) * (log2(n)+1) steps, far above the Õ(n/√k) bound.
	MaxSteps int

	// Mobility selects the motion model the population follows; nil selects
	// the paper's lazy random walk (mobility.LazyWalk), which reproduces
	// the pre-subsystem stepping path bit for bit under equal seeds. The
	// theoretical bounds quoted elsewhere in this package are proved for
	// the lazy walk only; other models are experimental contrasts.
	Mobility mobility.Model

	// Parallelism sets the component labeller's worker count: 0 selects
	// the automatic policy (parallel union phase above an internal
	// population threshold), 1 forces the sequential path, larger values
	// request up to that many workers. Results are bit-for-bit identical
	// at every setting; this is purely an execution knob.
	Parallelism int

	// TrackInformedArea enables the informed-area bitset I(t): the set of
	// grid nodes visited by informed agents, at one bitset write per
	// informed agent step. It measures the coverage time T_C: the broadcast
	// runs on past full dissemination until I(t) covers the grid (see
	// Broadcast.Done). The coverage and frontier observables track the
	// area without it and never extend the run.
	TrackInformedArea bool
	// RecordCurve records the number of informed agents after every step.
	RecordCurve bool
	// CellSide, when positive, tessellates the grid into CellSide-sided
	// cells and records the first time an informed agent enters each cell —
	// the bookkeeping of the paper's Theorem 1 proof (cells of side
	// l = sqrt(14 n log³n / (c3 k))). See theory.CellSide for the paper's
	// value. Full dissemination does not imply every cell was reached, so
	// the broadcast runs on past T_B until it is (see Broadcast.Done).
	CellSide int

	// Profile, when non-nil, accumulates per-phase wall-clock time (move,
	// index, label, spread, observe) across the run's steps; pass the same
	// profile to the step driver (step.Hooks.Profile), which owns the step
	// boundary and the observe phase. Purely an execution knob: results are
	// identical with or without it, and a nil profile keeps the step
	// allocation-free with only a branch per phase boundary. One replicate
	// per profile; not reset by the engine.
	Profile *prof.StepProfile

	// Placement, when non-nil, overrides the mobility model's initial
	// placement with explicit agent positions (len == K, all on-grid).
	// Deterministic placements support scenario construction and
	// regression tests; the paper's model corresponds to leaving this nil.
	// Models with per-agent motion state (waypoint destinations, trace
	// clocks) keep the state they derived at placement time, so overriding
	// composes best with the memoryless models (lazy, levy).
	Placement []grid.Point
}

func (c *Config) validate() error {
	if c.Grid == nil {
		return fmt.Errorf("core: config requires a grid")
	}
	if c.K <= 0 {
		return fmt.Errorf("core: K must be positive, got %d", c.K)
	}
	if c.Radius < 0 {
		return fmt.Errorf("core: negative radius %d", c.Radius)
	}
	if c.Source != SourceRandom && (c.Source < 0 || c.Source >= c.K) {
		return fmt.Errorf("core: source %d out of range [0,%d)", c.Source, c.K)
	}
	if c.MaxSteps < 0 {
		return fmt.Errorf("core: negative MaxSteps %d", c.MaxSteps)
	}
	if c.CellSide < 0 {
		return fmt.Errorf("core: negative CellSide %d", c.CellSide)
	}
	if c.Parallelism < 0 {
		return fmt.Errorf("core: negative Parallelism %d", c.Parallelism)
	}
	if c.Placement != nil {
		if len(c.Placement) != c.K {
			return fmt.Errorf("core: placement has %d positions for %d agents", len(c.Placement), c.K)
		}
		for i, p := range c.Placement {
			if !c.Grid.Contains(p) {
				return fmt.Errorf("core: placement %d at %v is off-grid", i, p)
			}
		}
	}
	return nil
}

// newLabeller builds the engine's incremental component labeller with the
// configured parallelism and profiler applied.
func (c *Config) newLabeller() *visibility.Incremental {
	l := visibility.NewIncremental(c.K)
	l.SetParallelism(c.Parallelism)
	l.SetProfile(c.Profile)
	return l
}

// StepCap resolves the step cap the run is driven under: MaxSteps when
// set, else the theory-derived default.
func (c *Config) StepCap() int {
	if c.MaxSteps > 0 {
		return c.MaxSteps
	}
	n := c.Grid.N()
	scale := theory.BroadcastScale(n, c.K)
	cap := 64 * scale * (math.Log2(float64(n)) + 1)
	if cap < 4096 {
		cap = 4096
	}
	return int(cap)
}
