// Package barrier implements the extension the paper names as future work
// in Section 4: information dissemination on planar domains with mobility
// barriers. A Domain is a grid with a set of blocked nodes; agents walk
// with the same 1/5-lazy kernel but a move into a blocked node is replaced
// by staying put, which keeps the uniform distribution over free nodes
// stationary (every free->free edge remains symmetric with probability
// 1/5).
//
// Domain.Walk is that motion law as a mobility.Model, so a broadcast on a
// domain is core's broadcast with the domain's walk, and every other
// engine can run on a domain too.
//
// Communication is unchanged: two agents within Manhattan distance r
// exchange rumors regardless of walls. This models radio that penetrates
// obstacles which block only movement (fences, water, cliffs); fully
// opaque barriers would also need line-of-sight pruning in the visibility
// graph, which is out of scope here and noted in DESIGN.md.
package barrier

import (
	"fmt"

	"mobilenet/internal/bitset"
	"mobilenet/internal/grid"
	"mobilenet/internal/mobility"
	"mobilenet/internal/rng"
)

// Domain is a grid with blocked nodes. Construct with NewDomain and the
// obstacle builders; the zero value is not usable.
type Domain struct {
	g       *grid.Grid
	blocked *bitset.Set
	free    int // number of free nodes
}

// NewDomain returns a fully open domain over g.
func NewDomain(g *grid.Grid) (*Domain, error) {
	if g == nil {
		return nil, fmt.Errorf("barrier: nil grid")
	}
	return &Domain{g: g, blocked: bitset.New(g.N()), free: g.N()}, nil
}

// Grid returns the underlying grid.
func (d *Domain) Grid() *grid.Grid { return d.g }

// FreeNodes returns the number of unblocked nodes.
func (d *Domain) FreeNodes() int { return d.free }

// Blocked reports whether p is blocked. Points off the grid count as
// blocked.
func (d *Domain) Blocked(p grid.Point) bool {
	if !d.g.Contains(p) {
		return true
	}
	return d.blocked.Contains(int(d.g.ID(p)))
}

// Block marks p as blocked; it reports whether the state changed.
func (d *Domain) Block(p grid.Point) bool {
	if !d.g.Contains(p) {
		return false
	}
	if d.blocked.Add(int(d.g.ID(p))) {
		d.free--
		return true
	}
	return false
}

// Unblock clears a blocked node; it reports whether the state changed.
func (d *Domain) Unblock(p grid.Point) bool {
	if !d.g.Contains(p) {
		return false
	}
	if d.blocked.Remove(int(d.g.ID(p))) {
		d.free++
		return true
	}
	return false
}

// AddWall blocks the vertical line x = col, leaving a centred gap of the
// given width. It returns an error when the column is off-grid or the gap
// exceeds the side.
func (d *Domain) AddWall(col, gapWidth int) error {
	side := d.g.Side()
	if col < 0 || col >= side {
		return fmt.Errorf("barrier: wall column %d outside grid side %d", col, side)
	}
	if gapWidth < 0 || gapWidth > side {
		return fmt.Errorf("barrier: gap width %d invalid for side %d", gapWidth, side)
	}
	gapLo := (side - gapWidth) / 2
	gapHi := gapLo + gapWidth
	for y := 0; y < side; y++ {
		if y >= gapLo && y < gapHi {
			continue
		}
		d.Block(grid.Point{X: int32(col), Y: int32(y)})
	}
	return nil
}

// AddRandomObstacles blocks approximately density*n nodes chosen uniformly
// at random (already-blocked choices are skipped, so the final blocked
// fraction can be slightly below the request). Density must lie in [0, 1).
func (d *Domain) AddRandomObstacles(density float64, src *rng.Source) error {
	if density < 0 || density >= 1 {
		return fmt.Errorf("barrier: obstacle density %v outside [0,1)", density)
	}
	if src == nil {
		return fmt.Errorf("barrier: nil randomness source")
	}
	target := int(density * float64(d.g.N()))
	side := d.g.Side()
	for i := 0; i < target; i++ {
		d.Block(grid.Point{X: int32(src.Intn(side)), Y: int32(src.Intn(side))})
	}
	return nil
}

// floodFrom flood-fills the free region containing start and returns the
// visited set and its size.
func (d *Domain) floodFrom(start grid.Point) (*bitset.Set, int) {
	seen := bitset.New(d.g.N())
	stack := []grid.Point{start}
	seen.Add(int(d.g.ID(start)))
	count := 0
	var buf []grid.Point
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		count++
		buf = d.g.Neighbors(p, buf[:0])
		for _, q := range buf {
			if d.Blocked(q) {
				continue
			}
			if seen.Add(int(d.g.ID(q))) {
				stack = append(stack, q)
			}
		}
	}
	return seen, count
}

// FreeConnected reports whether the free region is a single connected
// component (4-neighbour connectivity). Note that random obstacle fields
// almost always enclose small free pockets, so for agent placement
// LargestFreeComponent is usually the right notion.
func (d *Domain) FreeConnected() bool {
	if d.free == 0 {
		return false
	}
	_, count := d.floodFrom(d.someFreeNode())
	return count == d.free
}

func (d *Domain) someFreeNode() grid.Point {
	side := int32(d.g.Side())
	for y := int32(0); y < side; y++ {
		for x := int32(0); x < side; x++ {
			if p := (grid.Point{X: x, Y: y}); !d.Blocked(p) {
				return p
			}
		}
	}
	return grid.Point{X: -1, Y: -1} // unreachable: callers check free > 0
}

// LargestFreeComponent returns the node set of the largest connected free
// component and its size. It returns (nil, 0) on fully blocked domains.
func (d *Domain) LargestFreeComponent() (*bitset.Set, int) {
	if d.free == 0 {
		return nil, 0
	}
	visited := bitset.New(d.g.N())
	var best *bitset.Set
	bestSize := 0
	side := int32(d.g.Side())
	for y := int32(0); y < side; y++ {
		for x := int32(0); x < side; x++ {
			p := grid.Point{X: x, Y: y}
			if d.Blocked(p) || visited.Contains(int(d.g.ID(p))) {
				continue
			}
			comp, size := d.floodFrom(p)
			visited.UnionWith(comp)
			if size > bestSize {
				best, bestSize = comp, size
			}
		}
	}
	return best, bestSize
}

// Step advances one lazy-walk step from p, treating blocked nodes like grid
// boundaries (the move is replaced by staying).
func (d *Domain) Step(p grid.Point, src *rng.Source) grid.Point {
	q := p
	switch src.Intn(5) {
	case 0:
		q.X--
	case 1:
		q.X++
	case 2:
		q.Y--
	case 3:
		q.Y++
	default:
		return p
	}
	if d.Blocked(q) {
		return p
	}
	return q
}

// PlaceUniformConnected places k agents uniformly at random on the largest
// connected free component, the physically sensible placement for
// dissemination studies on obstacle fields (enclosed pockets can never be
// reached by mobility). It is the placement of the domain's walk.
func (d *Domain) PlaceUniformConnected(k int, src *rng.Source) ([]grid.Point, error) {
	st, err := d.Walk().Bind(d.g, k, src)
	if err != nil {
		return nil, err
	}
	out := make([]grid.Point, k)
	st.Place(out)
	return out, nil
}

// Walk returns the domain's motion law as a mobility model, so every
// engine runs on the domain: agents are placed uniformly on the largest
// connected free component, each drawing X then Y until it lands there,
// and each takes one Step per time unit, in index order. Bind rejects a
// grid of another side than the domain's, and a domain with no free node.
// Do not change the obstacles while a population walks on the domain.
func (d *Domain) Walk() mobility.Model { return domainWalk{d} }

type domainWalk struct{ d *Domain }

// Name implements mobility.Model.
func (domainWalk) Name() string { return "barrier" }

// UniformStationary implements mobility.Model. Blocked nodes are never
// occupied, so occupancy is not uniform on the grid.
func (domainWalk) UniformStationary() bool { return false }

// Bind implements mobility.Model.
func (w domainWalk) Bind(g *grid.Grid, k int, src *rng.Source) (mobility.State, error) {
	switch {
	case g == nil || g.Side() != w.d.g.Side():
		return nil, fmt.Errorf("barrier: walk needs a grid of side %d", w.d.g.Side())
	case k <= 0:
		return nil, fmt.Errorf("barrier: k must be positive, got %d", k)
	case src == nil:
		return nil, fmt.Errorf("barrier: nil randomness source")
	}
	comp, size := w.d.LargestFreeComponent()
	if size == 0 {
		return nil, fmt.Errorf("barrier: no free nodes to place agents on")
	}
	return &walkState{d: w.d, comp: comp, src: src}, nil
}

type walkState struct {
	d    *Domain
	comp *bitset.Set // largest connected free component
	src  *rng.Source
}

func (s *walkState) Place(pos []grid.Point) {
	side := s.d.g.Side()
	for i := range pos {
		for {
			p := grid.Point{X: int32(s.src.Intn(side)), Y: int32(s.src.Intn(side))}
			if s.comp.Contains(int(s.d.g.ID(p))) {
				pos[i] = p
				break
			}
		}
	}
}

func (s *walkState) Step(pos []grid.Point) {
	for i := range pos {
		s.StepAgent(pos, i)
	}
}

func (s *walkState) StepAgent(pos []grid.Point, i int) { pos[i] = s.d.Step(pos[i], s.src) }
