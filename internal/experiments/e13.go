package experiments

import (
	"fmt"

	"mobilenet/internal/grid"
	"mobilenet/internal/plot"
	"mobilenet/internal/scenario"
	"mobilenet/internal/sweep"
	"mobilenet/internal/tableio"
	"mobilenet/internal/theory"
)

// expE13 validates the paper's Section 4 predator-prey bound: with k
// predators (k = Ω(log n)) chasing moving preys, the extinction time is
// O((n log²n)/k). The measurement is one sweep of the predator engine
// over k.
func expE13() Experiment {
	e := Experiment{
		ID:    "E13",
		Title: "Predator-prey extinction time (§4)",
		Claim: "Extinction time = O((n log²n)/k): ~1/k decay in the predator count",
	}
	e.Run = func(p Params) (*Result, error) {
		res := e.newResult()
		g, err := grid.New(p.scaledSide(48))
		if err != nil {
			return nil, err
		}
		n := g.N()
		reps := p.reps(8)
		ks := []int{8, 16, 32, 64, 128}

		// Preys default to the predator count, m = k.
		sp := sweep.Spec{
			Label: fmt.Sprintf("E13: extinction time vs k (n=%d)", n),
			Base: scenario.Spec{Engine: scenario.EnginePredator, Nodes: n, Agents: ks[0],
				Radius: 0, Seed: p.Seed, Reps: reps},
			Axes: []sweep.Axis{{Field: "agents", Values: intValues(ks)}},
		}
		_, pts, err := runScenarioSweep(p, "E13", sp, true, repSteps)
		if err != nil {
			return nil, err
		}

		table := tableio.NewTable(
			fmt.Sprintf("Extinction time, n=%d, preys m=k, %d reps", n, reps),
			"k predators", "median extinction", "mean", "bound (n ln²n)/k", "measured/bound")
		bound := plot.Series{Name: "paper bound"}
		verdict := VerdictPass
		for i, k := range ks {
			pt := pts[i]
			env := theory.ExtinctionBound(n, k)
			table.AddRow(k, pt.Sum.Median, pt.Sum.Mean, env, pt.Sum.Median/env)
			bound.X = append(bound.X, float64(k))
			bound.Y = append(bound.Y, env)
			if pt.Sum.Median > env {
				verdict = worstVerdict(verdict, VerdictWarn)
			}
			p.logf("E13: k=%d extinction=%.0f bound=%.0f", k, pt.Sum.Median, env)
		}
		res.Tables = append(res.Tables, table)

		fit, err := fitMedians(pts)
		if err != nil {
			return nil, err
		}
		res.AddFinding("power-law fit of extinction time vs k: %s (bound predicts ≈ -1)", fit)
		res.Verdict = worstVerdict(verdict, exponentVerdict(fit.Alpha, -1.0, 0.35, 0.6))

		res.Figures = append(res.Figures, plot.Figure{
			Title:  fmt.Sprintf("E13: extinction time vs predators (n=%d)", n),
			XLabel: "k predators", YLabel: "extinction time", LogX: true, LogY: true,
			Series: []plot.Series{medianSeries("measured", pts), bound},
		})
		return res, nil
	}
	return e
}
