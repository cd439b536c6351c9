// Package percolation analyses the static structure of the visibility
// graph G_0(r) over uniformly placed agents: component-size statistics as a
// function of the transmission radius. The paper's sparse regime is defined
// by r below the percolation point r_c ≈ sqrt(n/k), where no component
// exceeds a logarithmic number of agents w.h.p.; above r_c a giant
// component appears. Experiment E4 sweeps r/r_c through the transition and
// X6 estimates r_c by binary search (EstimateRC).
package percolation

import (
	"fmt"
	"sort"

	"mobilenet/internal/agent"
	"mobilenet/internal/grid"
	"mobilenet/internal/rng"
	"mobilenet/internal/visibility"
)

// Census summarises the component structure of one placement at one radius.
type Census struct {
	// Components is the number of connected components.
	Components int
	// MaxSize is the size of the largest component.
	MaxSize int
	// SecondSize is the size of the second-largest component (0 if none).
	SecondSize int
	// MeanSize is the average component size.
	MeanSize float64
	// GiantFraction is MaxSize/k, the fraction of agents in the largest
	// component — the classical percolation order parameter.
	GiantFraction float64
	// Isolated is the number of singleton components.
	Isolated int
}

// Snapshot computes a Census of the visibility graph over the given
// positions at radius r.
func Snapshot(pos []grid.Point, r int, lab *visibility.Labeller) Census {
	if lab == nil {
		lab = visibility.NewLabeller(len(pos))
	}
	labels, count := lab.Components(pos, r)
	if count == 0 {
		return Census{}
	}
	sizes := visibility.Sizes(labels, count, nil)
	sorted := make([]int, len(sizes))
	for i, s := range sizes {
		sorted[i] = int(s)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(sorted)))
	c := Census{
		Components: count,
		MaxSize:    sorted[0],
		MeanSize:   float64(len(pos)) / float64(count),
	}
	if count > 1 {
		c.SecondSize = sorted[1]
	}
	for _, s := range sorted {
		if s == 1 {
			c.Isolated++
		}
	}
	c.GiantFraction = float64(c.MaxSize) / float64(len(pos))
	return c
}

// Sweep runs repeated random placements of k agents on g and computes the
// census at each requested radius, averaging over replicates.
type Sweep struct {
	// Grid is the arena. Required.
	Grid *grid.Grid
	// K is the number of agents. Required.
	K int
	// Radii is the list of radii to census. Required, each >= 0.
	Radii []int
	// Replicates is the number of independent placements (default 8).
	Replicates int
	// Seed drives the placements.
	Seed uint64
}

// SweepRow is the aggregate census for one radius.
type SweepRow struct {
	Radius            int
	MeanMaxSize       float64
	MaxMaxSize        int
	MeanGiantFraction float64
	MeanComponents    float64
	MeanIsolated      float64
}

func (s *Sweep) validate() error {
	if s.Grid == nil {
		return fmt.Errorf("percolation: sweep requires a grid")
	}
	if s.K <= 0 {
		return fmt.Errorf("percolation: K must be positive, got %d", s.K)
	}
	if len(s.Radii) == 0 {
		return fmt.Errorf("percolation: no radii to sweep")
	}
	for _, r := range s.Radii {
		if r < 0 {
			return fmt.Errorf("percolation: negative radius %d", r)
		}
	}
	if s.Replicates < 0 {
		return fmt.Errorf("percolation: negative replicates %d", s.Replicates)
	}
	return nil
}

// Run executes the sweep and returns one row per radius, in input order.
func (s *Sweep) Run() ([]SweepRow, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	reps := s.Replicates
	if reps == 0 {
		reps = 8
	}
	master := rng.New(s.Seed)
	lab := visibility.NewLabeller(s.K)
	rows := make([]SweepRow, len(s.Radii))
	for i, r := range s.Radii {
		rows[i].Radius = r
	}
	for rep := 0; rep < reps; rep++ {
		pop, err := agent.New(s.Grid, s.K, master.Split())
		if err != nil {
			return nil, err
		}
		for i, r := range s.Radii {
			c := Snapshot(pop.Positions(), r, lab)
			rows[i].MeanMaxSize += float64(c.MaxSize)
			rows[i].MeanGiantFraction += c.GiantFraction
			rows[i].MeanComponents += float64(c.Components)
			rows[i].MeanIsolated += float64(c.Isolated)
			if c.MaxSize > rows[i].MaxMaxSize {
				rows[i].MaxMaxSize = c.MaxSize
			}
		}
	}
	for i := range rows {
		rows[i].MeanMaxSize /= float64(reps)
		rows[i].MeanGiantFraction /= float64(reps)
		rows[i].MeanComponents /= float64(reps)
		rows[i].MeanIsolated /= float64(reps)
	}
	return rows, nil
}

// EstimateRC estimates the empirical percolation radius: the smallest
// integer radius at which the mean giant-component fraction over the given
// replicates reaches the threshold (classically 0.5). It binary-searches
// over r in [0, diameter]; monotonicity of the giant fraction in r makes
// the search valid.
func EstimateRC(g *grid.Grid, k, replicates int, threshold float64, seed uint64) (int, error) {
	if g == nil {
		return 0, fmt.Errorf("percolation: nil grid")
	}
	if k <= 1 {
		return 0, fmt.Errorf("percolation: need k >= 2, got %d", k)
	}
	if replicates <= 0 {
		return 0, fmt.Errorf("percolation: replicates must be positive, got %d", replicates)
	}
	if threshold <= 0 || threshold > 1 {
		return 0, fmt.Errorf("percolation: threshold %v outside (0,1]", threshold)
	}
	// Fixed placements shared across probe radii keep the search monotone.
	master := rng.New(seed)
	pops := make([][]grid.Point, replicates)
	for i := range pops {
		pop, err := agent.New(g, k, master.Split())
		if err != nil {
			return 0, err
		}
		pos := make([]grid.Point, k)
		copy(pos, pop.Positions())
		pops[i] = pos
	}
	lab := visibility.NewLabeller(k)
	meanGiant := func(r int) float64 {
		total := 0.0
		for _, pos := range pops {
			total += Snapshot(pos, r, lab).GiantFraction
		}
		return total / float64(len(pops))
	}
	lo, hi := 0, g.Diameter()
	if meanGiant(hi) < threshold {
		return 0, fmt.Errorf("percolation: giant fraction below %v even at full radius", threshold)
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if meanGiant(mid) >= threshold {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, nil
}
