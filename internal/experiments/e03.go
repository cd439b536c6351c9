package experiments

import (
	"fmt"
	"math"

	"mobilenet/internal/grid"
	"mobilenet/internal/plot"
	"mobilenet/internal/scenario"
	"mobilenet/internal/sweep"
	"mobilenet/internal/tableio"
	"mobilenet/internal/theory"
)

// expE03 is the headline experiment: below the percolation radius the
// broadcast time does not depend on r (beyond polylog factors), while above
// r_c it collapses to the polylogarithmic supercritical regime of Peres et
// al. The radius axis of one SweepSpec crosses r_c so both behaviours and
// the transition are visible in one table.
func expE03() Experiment {
	e := Experiment{
		ID:    "E3",
		Title: "Broadcast time vs transmission radius",
		Claim: "Below r_c ≈ sqrt(n/k), T_B stays within polylog factors of n/√k regardless of r; above r_c it collapses (headline result + Peres et al. contrast)",
	}
	e.Run = func(p Params) (*Result, error) {
		res := e.newResult()
		side := p.scaledSide(128)
		g, err := grid.New(side)
		if err != nil {
			return nil, err
		}
		n := g.N()
		const k = 64
		if n < 2*k {
			return nil, fmt.Errorf("E3: grid too small for k=%d at scale %.2f", k, p.scale())
		}
		reps := p.reps(10)
		rc := theory.PercolationRadius(n, k)
		// Radii as fractions of r_c, crossing the transition.
		fractions := []float64{0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0, 1.25, 1.5, 2.0}
		radii := make([]int, 0, len(fractions))
		seen := map[int]bool{}
		for _, f := range fractions {
			r := int(math.Round(f * rc))
			if !seen[r] {
				seen[r] = true
				radii = append(radii, r)
			}
		}

		sp := sweep.Spec{
			Label: fmt.Sprintf("E3: T_B vs r (n=%d, k=%d)", n, k),
			Base: scenario.Spec{Engine: scenario.EngineBroadcast, Nodes: n, Agents: k,
				Seed: p.Seed, Source: 0, Reps: reps},
			Axes: []sweep.Axis{{Field: "radius", Values: intValues(radii)}},
		}
		_, pts, err := runScenarioSweep(p, "E3", sp, true, repSteps)
		if err != nil {
			return nil, err
		}

		table := tableio.NewTable(
			fmt.Sprintf("Median T_B vs r, n=%d, k=%d, r_c=%.1f, %d reps", n, k, rc, reps),
			"r", "r/r_c", "median T_B", "mean", "T_B(r)/T_B(0)")
		tb0 := pts[0].Sum.Median
		for i, pt := range pts {
			r := radii[i]
			ratio := 0.0
			if tb0 > 0 {
				ratio = pt.Sum.Median / tb0
			}
			table.AddRow(r, float64(r)/rc, pt.Sum.Median, pt.Sum.Mean, ratio)
			p.logf("E3: r=%d (%.2f r_c) median T_B=%.0f", r, float64(r)/rc, pt.Sum.Median)
		}
		res.Tables = append(res.Tables, table)

		// Verdict parts:
		// (a) subcritical band: for r <= r_c/2 the ratio T_B(0)/T_B(r) stays
		//     within a polylog band (log2(n)^2 is the generous finite-size
		//     reading of Θ̃).
		// (b) supercritical collapse: at r >= 1.5 r_c, T_B drops by at least
		//     an order of magnitude relative to r=0.
		polylogBand := math.Log2(float64(n)) * math.Log2(float64(n))
		verdict := VerdictPass
		var worstSub float64 = 1
		for i, r := range radii {
			if float64(r) <= rc/2 && pts[i].Sum.Median > 0 {
				if ratio := tb0 / pts[i].Sum.Median; ratio > worstSub {
					worstSub = ratio
				}
			}
		}
		res.AddFinding("largest subcritical slowdown factor T_B(0)/T_B(r) for r ≤ r_c/2: %.2f (polylog band %.0f)", worstSub, polylogBand)
		if worstSub > polylogBand {
			verdict = VerdictFail
		} else if worstSub > polylogBand/4 {
			verdict = VerdictWarn
		}

		collapse := math.Inf(1)
		for i, r := range radii {
			if float64(r) >= 1.5*rc && pts[i].Sum.Median >= 0 {
				c := (pts[i].Sum.Median + 1) / (tb0 + 1)
				if c < collapse {
					collapse = c
				}
			}
		}
		if !math.IsInf(collapse, 1) {
			res.AddFinding("supercritical collapse: T_B(r≥1.5r_c)/T_B(0) = %.4f (expect ≪ 1)", collapse)
			if collapse > 0.25 {
				verdict = worstVerdict(verdict, VerdictWarn)
			}
		}
		res.Verdict = verdict

		res.Figures = append(res.Figures, plot.Figure{
			Title:  fmt.Sprintf("E3: T_B vs r (n=%d, k=%d, r_c=%.1f)", n, k, rc),
			XLabel: "transmission radius r", YLabel: "T_B", LogY: true,
			Series: []plot.Series{medianSeries("median T_B", pts)},
		})
		return res, nil
	}
	return e
}
