package core

import (
	"mobilenet/internal/grid"
)

// cellTracker records, per tessellation cell, the first time an informed
// agent occupied a node of the cell — the quantity t_Q of the paper's
// Theorem 1 proof ("a cell Q is reached at time t_Q if t_Q is the first
// time when a node of the cell hosts an agent informed of the rumor").
type cellTracker struct {
	tess  *grid.Tessellation
	reach []int // first reach time per cell, -1 until reached
	left  int   // cells not yet reached
}

func newCellTracker(g *grid.Grid, cellSide int) *cellTracker {
	tess := grid.NewTessellation(g, cellSide)
	reach := make([]int, tess.Cells())
	for i := range reach {
		reach[i] = -1
	}
	return &cellTracker{tess: tess, reach: reach, left: tess.Cells()}
}

// observe marks the cell containing p as reached at time t (no-op when the
// cell was reached earlier).
func (c *cellTracker) observe(p grid.Point, t int) {
	cell := c.tess.CellOf(p)
	if c.reach[cell] < 0 {
		c.reach[cell] = t
		c.left--
	}
}

// allReached reports whether every cell has been reached.
func (c *cellTracker) allReached() bool { return c.left == 0 }

// CellReachReport is the tessellation view of a broadcast run.
type CellReachReport struct {
	// CellSide is the tessellation cell side used.
	CellSide int
	// Cells is the number of cells.
	Cells int
	// Reached is the number of cells reached by an informed agent.
	Reached int
	// ReachTimes holds the first reach time per cell (-1 for unreached),
	// indexed by grid.CellID order.
	ReachTimes []int
	// MaxReach is the largest reach time among reached cells (the time at
	// which the last cell was first touched), or -1 when nothing was
	// reached.
	MaxReach int
	// SourceCell is the cell containing the source agent at time 0.
	SourceCell int
}

// CellReach returns the tessellation report, or nil when cell tracking was
// not enabled.
func (b *Broadcast) CellReach() *CellReachReport {
	if b.cells == nil {
		return nil
	}
	out := make([]int, len(b.cells.reach))
	copy(out, b.cells.reach)
	maxReach := -1
	reached := 0
	for _, t := range out {
		if t >= 0 {
			reached++
			if t > maxReach {
				maxReach = t
			}
		}
	}
	return &CellReachReport{
		CellSide:   b.cells.tess.CellSide(),
		Cells:      b.cells.tess.Cells(),
		Reached:    reached,
		ReachTimes: out,
		MaxReach:   maxReach,
		SourceCell: b.sourceCell,
	}
}

// ReachByCellDistance aggregates reach times by the Chebyshev cell-grid
// distance from the source cell, returning the mean reach time per distance
// ring. Rings with no reached cells carry -1. This is the observable behind
// the Theorem 1 picture: the rumor spreads cell to cell, so reach times
// should grow essentially linearly with cell distance.
func (r *CellReachReport) ReachByCellDistance(perRow int) []float64 {
	if perRow <= 0 || r.Cells == 0 {
		return nil
	}
	sx := r.SourceCell % perRow
	sy := r.SourceCell / perRow
	maxD := 0
	dist := make([]int, r.Cells)
	for c := 0; c < r.Cells; c++ {
		dx := c%perRow - sx
		if dx < 0 {
			dx = -dx
		}
		dy := c/perRow - sy
		if dy < 0 {
			dy = -dy
		}
		d := dx
		if dy > d {
			d = dy
		}
		dist[c] = d
		if d > maxD {
			maxD = d
		}
	}
	sums := make([]float64, maxD+1)
	counts := make([]int, maxD+1)
	for c, t := range r.ReachTimes {
		if t < 0 {
			continue
		}
		sums[dist[c]] += float64(t)
		counts[dist[c]]++
	}
	out := make([]float64, maxD+1)
	for d := range out {
		if counts[d] == 0 {
			out[d] = -1
			continue
		}
		out[d] = sums[d] / float64(counts[d])
	}
	return out
}
