// Package walk implements the paper's mobility model: the lazy simple
// random walk on the square grid. At each step an agent on a node v with
// nv grid neighbours (nv ∈ {2, 3, 4}) moves to each neighbour with
// probability exactly 1/5 and stays on v with probability 1 − nv/5. This
// specific laziness makes the uniform distribution stationary (paper §2),
// which Experiment E16 verifies empirically.
//
// The package also provides the two walk instrumentations the paper's
// Lemmas 1–2 reason about: the range (number of distinct nodes visited)
// and the displacement from the origin.
package walk

import (
	"math/bits"

	"mobilenet/internal/bitset"
	"mobilenet/internal/grid"
	"mobilenet/internal/rng"
)

// Step advances a single lazy-walk step from p on g, drawing randomness
// from src, and returns the new position.
//
// The draw picks uniformly among five outcomes: the four lattice directions
// and "stay". A direction that would leave the grid results in staying put,
// which yields exactly the paper's kernel: each existing neighbour with
// probability 1/5, stay with the remaining 1 − nv/5.
func Step(g *grid.Grid, p grid.Point, src *rng.Source) grid.Point {
	switch src.Intn(5) {
	case 0:
		if p.X > 0 {
			p.X--
		}
	case 1:
		if p.X < int32(g.Side())-1 {
			p.X++
		}
	case 2:
		if p.Y > 0 {
			p.Y--
		}
	case 3:
		if p.Y < int32(g.Side())-1 {
			p.Y++
		}
	default:
		// stay
	}
	return p
}

// StepAll advances every position one lazy step in index order, batching
// the per-agent randomness: the raw 64-bit draws for the whole population
// are generated first in one tight loop over the generator state (buf must
// have len(pos) capacity), and each is then decoded into both the laziness
// and the direction decision of one agent in a second, generator-free loop.
//
// The batched kernel consumes exactly the same randomness stream as
// len(pos) successive Step calls: Step's Intn(5) draws one Uint64 and keeps
// the high word of its 128-bit product with 5, redrawing only when the
// Lemire rejection fires — which for n = 5 happens precisely on a raw draw
// of zero, reproduced here by the inner redraw loop at the same position in
// the stream. Equal seeds therefore yield trajectories bit-for-bit
// identical to the scalar path, which TestStepAllMatchesStep pins.
func StepAll(g *grid.Grid, pos []grid.Point, buf []uint64, src *rng.Source) {
	buf = buf[:len(pos)]
	for i := range buf {
		u := src.Uint64()
		for u == 0 {
			u = src.Uint64()
		}
		buf[i] = u
	}
	edge := int32(g.Side()) - 1
	for i, u := range buf {
		outcome, _ := bits.Mul64(u, 5)
		p := pos[i]
		switch outcome {
		case 0:
			if p.X > 0 {
				p.X--
			}
		case 1:
			if p.X < edge {
				p.X++
			}
		case 2:
			if p.Y > 0 {
				p.Y--
			}
		case 3:
			if p.Y < edge {
				p.Y++
			}
		default:
			// stay
		}
		pos[i] = p
	}
}

// StepAllMoved advances every position one lazy step exactly like StepAll
// and additionally reports which agents actually changed position: the
// indices of agents whose new position differs from their old one (a "stay"
// outcome, or a direction clamped at the boundary, leaves an agent
// unmoved) are appended to moved in ascending order and the extended slice
// is returned.
//
// The kernel consumes the identical randomness stream as StepAll — and
// therefore as len(pos) successive Step calls — under equal seeds; the
// moved report is derived purely from the position comparison and never
// touches the generator. TestStepAllMovedMatchesStepAll pins both
// properties. The incremental connectivity kernel consumes the report to
// skip index and relabel work for unmoved agents.
func StepAllMoved(g *grid.Grid, pos []grid.Point, buf []uint64, src *rng.Source, moved []int32) []int32 {
	buf = buf[:len(pos)]
	for i := range buf {
		u := src.Uint64()
		for u == 0 {
			u = src.Uint64()
		}
		buf[i] = u
	}
	edge := int32(g.Side()) - 1
	for i, u := range buf {
		outcome, _ := bits.Mul64(u, 5)
		p := pos[i]
		q := p
		switch outcome {
		case 0:
			if q.X > 0 {
				q.X--
			}
		case 1:
			if q.X < edge {
				q.X++
			}
		case 2:
			if q.Y > 0 {
				q.Y--
			}
		case 3:
			if q.Y < edge {
				q.Y++
			}
		default:
			// stay
		}
		if q != p {
			pos[i] = q
			moved = append(moved, int32(i))
		}
	}
	return moved
}

// SimpleStep advances a non-lazy simple-random-walk step: the agent always
// moves, choosing uniformly among its nv grid neighbours.
//
// This kernel is NOT the paper's model — it serves mobility.Simple, the
// laziness ablation (experiment X3). On the bipartite grid a simple walk
// preserves coordinate parity ((x+y) mod 2 alternates deterministically),
// so two simple walks whose initial separation is odd can never co-occupy
// a node: r=0 dissemination deadlocks. The paper's 1/5-lazy kernel breaks
// parity and avoids this failure mode.
func SimpleStep(g *grid.Grid, p grid.Point, src *rng.Source) grid.Point {
	side := int32(g.Side())
	if side == 1 {
		return p
	}
	// Collect valid directions; pick uniformly among them.
	var dirs [4]grid.Point
	n := 0
	if p.X > 0 {
		dirs[n] = grid.Point{X: p.X - 1, Y: p.Y}
		n++
	}
	if p.X < side-1 {
		dirs[n] = grid.Point{X: p.X + 1, Y: p.Y}
		n++
	}
	if p.Y > 0 {
		dirs[n] = grid.Point{X: p.X, Y: p.Y - 1}
		n++
	}
	if p.Y < side-1 {
		dirs[n] = grid.Point{X: p.X, Y: p.Y + 1}
		n++
	}
	return dirs[src.Intn(n)]
}

// TorusStep advances a lazy-walk step on the torus: the same 1/5 kernel as
// Step but with wraparound instead of boundary truncation, so every node
// has nv = 4 and the walk stays at each node with probability exactly 1/5.
//
// The paper works on the bounded grid and handles boundaries through the
// reflection principle (its Lemma 1 proof); the torus kernel serves
// mobility.Torus, the boundary ablation (experiment X7), which checks that
// boundary effects only cost constants.
func TorusStep(g *grid.Grid, p grid.Point, src *rng.Source) grid.Point {
	side := int32(g.Side())
	if side == 1 {
		return p
	}
	switch src.Intn(5) {
	case 0:
		p.X--
		if p.X < 0 {
			p.X = side - 1
		}
	case 1:
		p.X++
		if p.X == side {
			p.X = 0
		}
	case 2:
		p.Y--
		if p.Y < 0 {
			p.Y = side - 1
		}
	case 3:
		p.Y++
		if p.Y == side {
			p.Y = 0
		}
	default:
		// stay
	}
	return p
}

// Walker is a single random walk with its own randomness stream and
// optional instrumentation.
type Walker struct {
	g      *grid.Grid
	pos    grid.Point
	origin grid.Point
	src    *rng.Source
	steps  int

	visited *bitset.Set // non-nil when range tracking is on
	maxDisp int
}

// NewWalker creates a walker at start on g. Pass trackRange to maintain the
// visited-node set (costs one bitset write per step).
func NewWalker(g *grid.Grid, start grid.Point, src *rng.Source, trackRange bool) *Walker {
	w := &Walker{g: g, pos: start, origin: start, src: src}
	if trackRange {
		w.visited = bitset.New(g.N())
		w.visited.Add(int(g.ID(start)))
	}
	return w
}

// NewWalkerUniform creates a walker at a uniformly random node.
func NewWalkerUniform(g *grid.Grid, src *rng.Source, trackRange bool) *Walker {
	start := grid.Point{
		X: int32(src.Intn(g.Side())),
		Y: int32(src.Intn(g.Side())),
	}
	return NewWalker(g, start, src, trackRange)
}

// Pos returns the current position.
func (w *Walker) Pos() grid.Point { return w.pos }

// Origin returns the starting position.
func (w *Walker) Origin() grid.Point { return w.origin }

// Steps returns how many steps have been taken.
func (w *Walker) Steps() int { return w.steps }

// Step advances the walk one step and returns the new position.
func (w *Walker) Step() grid.Point {
	w.pos = Step(w.g, w.pos, w.src)
	w.steps++
	if w.visited != nil {
		w.visited.Add(int(w.g.ID(w.pos)))
	}
	if d := grid.ManhattanPoints(w.pos, w.origin); d > w.maxDisp {
		w.maxDisp = d
	}
	return w.pos
}

// Range returns the number of distinct nodes visited so far, including the
// start. It returns 0 when range tracking was not enabled.
func (w *Walker) Range() int {
	if w.visited == nil {
		return 0
	}
	return w.visited.Len()
}

// Visited reports whether the walk has visited node p. It returns false
// when range tracking was not enabled.
func (w *Walker) Visited(p grid.Point) bool {
	if w.visited == nil {
		return false
	}
	return w.visited.Contains(int(w.g.ID(p)))
}

// Displacement returns the current Manhattan distance from the origin.
func (w *Walker) Displacement() int {
	return grid.ManhattanPoints(w.pos, w.origin)
}

// MaxDisplacement returns the largest Manhattan distance from the origin
// observed at any step so far.
func (w *Walker) MaxDisplacement() int { return w.maxDisp }
