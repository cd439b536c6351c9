package visibility

// Differential harness for the incremental connectivity kernel: the
// incremental path (sequential and parallel) and the production selection
// (all pairs up to allPairsK agents, the kernel above) must produce labels
// and informed bitsets byte-identical to the retained full-rebuild path,
// every step, across all five mobility models, the paper-relevant radii and
// populations on both sides of the all-pairs threshold. It
// extends the crosscheck property test (which pins the full path against
// the O(k²) brute force) one level up the stack: brute force proves the
// reference, this harness proves the kernel against the reference, and
// periodic brute-force spot checks close the loop.
//
// Churn matters as much as smooth motion: the pair cache's drift
// certificate and the window re-anchor only fire on large displacements,
// so the run teleports agents mid-stream — the trace-replay model's loop
// wrap provides natural teleports, and explicit mid-run scatters hit every
// model — and verifies the kernel recovers bit-exactly.

import (
	"fmt"
	"testing"

	"mobilenet/internal/bitset"
	"mobilenet/internal/grid"
	"mobilenet/internal/mobility"
	"mobilenet/internal/rng"
)

// checkInternalState is the white-box oracle shared by the differential
// harness and the fuzz targets: it verifies the loose-CSR and pair-cache
// invariants of an incremental-mode kernel against a from-scratch
// recomputation over the current positions. It returns nil when the kernel
// holds no incremental state (full mode, trivial regimes, never stepped).
func (x *Incremental) checkInternalState(pos []grid.Point) error {
	if x.fullMode || !x.valid || x.k != len(pos) || x.k < 2 || x.r < 0 {
		return nil
	}
	k := x.k
	for i := 0; i < k; i++ {
		if x.prevPos[i] != pos[i] {
			return fmt.Errorf("agent %d: prevPos %v != pos %v", i, x.prevPos[i], pos[i])
		}
	}
	numCells := x.gw * x.gh
	// Dirty-cell CSR: cellOf matches the geometry, slots round-trip, and
	// per-cell membership equals a recount.
	liveSeen := 0
	for i := 0; i < k; i++ {
		p := pos[i]
		c := int32(uint32(p.Y-x.minY)>>x.shift)*int32(x.gw) + int32(uint32(p.X-x.minX)>>x.shift)
		if c < 0 || int(c) >= numCells {
			return fmt.Errorf("agent %d: cell %d outside bucket grid %dx%d", i, c, x.gw, x.gh)
		}
		if x.cellOf[i] != c {
			return fmt.Errorf("agent %d: cellOf %d, geometry says %d", i, x.cellOf[i], c)
		}
		// Slot round-trips are only an invariant of a live layout: once a
		// bucket overflow marks the CSR stale, surgery stops and only cellOf
		// (checked above, always) tracks geometry until the next rescan
		// relays the slabs out.
		if x.csrStale {
			continue
		}
		s := x.slotOf[i]
		if s < x.csrStarts[c] || s >= x.csrStarts[c]+x.csrCount[c] {
			return fmt.Errorf("agent %d: slot %d outside live range of cell %d", i, s, c)
		}
		if x.csrOrder[s] != int32(i) {
			return fmt.Errorf("agent %d: slot %d holds agent %d", i, s, x.csrOrder[s])
		}
	}
	if !x.csrStale {
		for c := 0; c < numCells; c++ {
			liveSeen += int(x.csrCount[c])
			if x.csrCount[c]+cellSlack > x.csrStarts[c+1]-x.csrStarts[c] {
				// Capacity may be tighter than count+slack only for cells laid
				// out before members left; it must never be exceeded.
				if x.csrCount[c] > x.csrStarts[c+1]-x.csrStarts[c] {
					return fmt.Errorf("cell %d: count %d exceeds capacity %d",
						c, x.csrCount[c], x.csrStarts[c+1]-x.csrStarts[c])
				}
			}
		}
		if liveSeen != k {
			return fmt.Errorf("CSR holds %d live members for %d agents", liveSeen, k)
		}
	}
	// Pair cache: no duplicates, pass bits exact, and every true edge
	// cached with its bit set (candidate completeness).
	type pk struct{ a, b int32 }
	cached := make(map[pk]bool, len(x.pairs)/2)
	for pi := 0; pi < len(x.pairs)/2; pi++ {
		a, b := x.pairs[2*pi], x.pairs[2*pi+1]
		if a > b {
			a, b = b, a
		}
		key := pk{a, b}
		if _, dup := cached[key]; dup {
			return fmt.Errorf("pair (%d,%d) cached twice", a, b)
		}
		pass := x.passBits[pi>>6]&(1<<(uint(pi)&63)) != 0
		if want := grid.ManhattanPoints(pos[a], pos[b]) <= x.r; pass != want {
			return fmt.Errorf("pair (%d,%d): pass bit %v, distance says %v", a, b, pass, want)
		}
		cached[key] = true
	}
	for a := int32(0); a < int32(k); a++ {
		for b := a + 1; b < int32(k); b++ {
			if grid.ManhattanPoints(pos[a], pos[b]) <= x.r && !cached[pk{a, b}] {
				return fmt.Errorf("edge (%d,%d) at distance %d not in pair cache (r=%d, pad=%d, remain=%d)",
					a, b, grid.ManhattanPoints(pos[a], pos[b]), x.r, x.pad, x.remain)
			}
		}
	}
	return nil
}

// diffVariant is one kernel under test plus its informed set.
type diffVariant struct {
	name     string
	x        *Incremental
	informed *bitset.Set
	newly    []int32
}

func newDiffVariant(name string, k, par int, fullRebuild bool) *diffVariant {
	x := NewIncremental(k)
	x.SetParallelism(par)
	x.SetFullRebuild(fullRebuild)
	v := &diffVariant{name: name, x: x, informed: bitset.New(k)}
	v.informed.Add(0) // agent 0 is the rumor source throughout
	return v
}

// kernelVariant is newDiffVariant on the incremental kernel at every
// population, the all-pairs regime switched off.
func kernelVariant(name string, k, par int) *diffVariant {
	v := newDiffVariant(name, k, par, false)
	v.x.kernelOnly = true
	return v
}

// diffModels returns the five mobility models the differential harness
// drives on g with k agents. The short looping trace wraps twice within a
// run, teleporting every agent back to its recorded start mid-stream.
func diffModels(t *testing.T, g *grid.Grid, k int) []mobility.Model {
	return []mobility.Model{
		mobility.LazyWalk{},
		mobility.RandomWaypoint{Pause: 1},
		mobility.LevyFlight{},
		mobility.Ballistic{},
		mobility.TraceReplay{Trace: recordModelTrace(t, g, k, 100, 1789), Loop: true},
	}
}

func TestDifferentialIncrementalVsFullRebuild(t *testing.T) {
	t.Parallel()
	// k = 8 and 32 sit inside the all-pairs regime, k = 150 above it; each
	// population gets an arena of comparable density.
	sizes := []struct{ k, side int }{{8, 16}, {32, 24}, {150, 48}}
	grids := make([]*grid.Grid, len(sizes))
	models := make([][]mobility.Model, len(sizes))
	for si, sz := range sizes {
		grids[si] = grid.MustNew(sz.side)
		models[si] = diffModels(t, grids[si], sz.k)
	}
	for mi, m := range models[0] {
		t.Run(m.Name(), func(t *testing.T) {
			t.Parallel()
			for si, sz := range sizes {
				t.Run(fmt.Sprintf("k=%d", sz.k), func(t *testing.T) {
					runDifferential(t, models[si][mi], grids[si], sz.k, 256)
				})
			}
		})
	}
}

// runDifferential drives one model for steps steps and compares the kernel
// (sequential and parallel) and the production selection against the
// full-rebuild reference at every radius, every step.
func runDifferential(t *testing.T, m mobility.Model, g *grid.Grid, k, steps int) {
	st, err := m.Bind(g, k, rng.New(20110601))
	if err != nil {
		t.Fatal(err)
	}
	pos := make([]grid.Point, k)
	st.Place(pos)
	churnSrc := rng.New(9899)
	side := g.Side()

	type radiusSet struct {
		r        int
		ref      *diffVariant // retained full-rebuild path
		variants []*diffVariant
	}
	sets := make([]*radiusSet, len(crossCheckRadii))
	for ri, r := range crossCheckRadii {
		sets[ri] = &radiusSet{
			r:   r,
			ref: newDiffVariant("full", k, 1, true),
			variants: []*diffVariant{
				kernelVariant("inc-seq", k, 1),
				kernelVariant("inc-par", k, 3),
				newDiffVariant("selected", k, 1, false),
			},
		}
	}

	refLabels := make([]int32, k)
	for s := 0; s <= steps; s++ {
		if s > 0 {
			st.Step(pos)
			if s == 85 || s == 170 {
				// Mid-run churn: scatter an eighth of the agents (at least
				// one) to fresh uniform positions, stressing budget blowout
				// and dirty-cell surgery in one step.
				for c := 0; c < max(k/8, 1); c++ {
					i := churnSrc.Intn(k)
					pos[i] = grid.Point{X: int32(churnSrc.Intn(side)), Y: int32(churnSrc.Intn(side))}
				}
			}
		}
		for _, rs := range sets {
			wl, wc := rs.ref.x.Components(pos, rs.r)
			copy(refLabels, wl)
			for _, v := range rs.variants {
				gl, gc := v.x.Components(pos, rs.r)
				if gc != wc {
					t.Fatalf("t=%d r=%d %s: count %d, full %d", s, rs.r, v.name, gc, wc)
				}
				for i := 0; i < k; i++ {
					if gl[i] != refLabels[i] {
						t.Fatalf("t=%d r=%d %s agent %d: label %d, full %d",
							s, rs.r, v.name, i, gl[i], refLabels[i])
					}
				}
				if err := v.x.checkInternalState(pos); err != nil {
					t.Fatalf("t=%d r=%d %s: internal state: %v", s, rs.r, v.name, err)
				}
			}
			// Spot-check the reference itself against brute force at a
			// coarse cadence (the crosscheck test owns the dense version of
			// this assertion).
			if s%64 == 0 {
				bl, bc := bruteComponents(pos, rs.r)
				if bc != wc {
					t.Fatalf("t=%d r=%d: full count %d, brute %d", s, rs.r, wc, bc)
				}
				for i := range bl {
					if int(refLabels[i]) != bl[i] {
						t.Fatalf("t=%d r=%d agent %d: full label %d, brute %d",
							s, rs.r, i, refLabels[i], bl[i])
					}
				}
			}
			// Informed-set differential: flood every variant and require
			// byte-identical growth.
			rs.ref.newly = rs.ref.x.Flood(pos, rs.r, rs.ref.informed, rs.ref.newly[:0])
			for _, v := range rs.variants {
				v.newly = v.x.Flood(pos, rs.r, v.informed, v.newly[:0])
				if len(v.newly) != len(rs.ref.newly) {
					t.Fatalf("t=%d r=%d %s: %d newly informed, full %d",
						s, rs.r, v.name, len(v.newly), len(rs.ref.newly))
				}
				for i := range v.newly {
					if v.newly[i] != rs.ref.newly[i] {
						t.Fatalf("t=%d r=%d %s: newly[%d]=%d, full %d",
							s, rs.r, v.name, i, v.newly[i], rs.ref.newly[i])
					}
				}
				if !v.informed.Equal(rs.ref.informed) {
					t.Fatalf("t=%d r=%d %s: informed set diverged from full path", s, rs.r, v.name)
				}
			}
		}
	}
}

// TestFloodWithLabelsMatchesFlood pins the two spread primitives to each
// other on the engines' exact interleaving: on "observed" steps an engine
// labels first and floods through FloodWithLabels; on plain steps it calls
// Flood. Both orders must grow the informed set identically.
func TestFloodWithLabelsMatchesFlood(t *testing.T) {
	t.Parallel()
	const side, k, steps, r = 32, 120, 96, 2
	g := grid.MustNew(side)
	st, err := mobility.LazyWalk{}.Bind(g, k, rng.New(31))
	if err != nil {
		t.Fatal(err)
	}
	pos := make([]grid.Point, k)
	st.Place(pos)

	viaFlood := newDiffVariant("flood", k, 1, false)
	viaLabels := newDiffVariant("labels", k, 1, false)
	for s := 0; s <= steps; s++ {
		if s > 0 {
			st.Step(pos)
		}
		viaFlood.newly = viaFlood.x.Flood(pos, r, viaFlood.informed, viaFlood.newly[:0])
		labels, count := viaLabels.x.Components(pos, r)
		viaLabels.newly = viaLabels.x.FloodWithLabels(labels, count, viaLabels.informed, viaLabels.newly[:0])
		if !viaFlood.informed.Equal(viaLabels.informed) {
			t.Fatalf("t=%d: Flood and Components+FloodWithLabels diverged", s)
		}
		if len(viaFlood.newly) != len(viaLabels.newly) {
			t.Fatalf("t=%d: newly lists differ: %d vs %d", s, len(viaFlood.newly), len(viaLabels.newly))
		}
	}
	if viaFlood.informed.Len() != k {
		t.Fatalf("flood never completed: %d of %d informed", viaFlood.informed.Len(), k)
	}
}
