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

// expE01 validates the k-dependence of Theorems 1 and 2: at fixed n and
// r = 0, the broadcast time decays as k^(-1/2) up to polylog factors. The
// measurement is one declarative SweepSpec — an agents axis over a fixed
// broadcast base — with the sweep layer's built-in log-log fit as the
// scaling-law check.
func expE01() Experiment {
	e := Experiment{
		ID:    "E1",
		Title: "Broadcast time vs k (r=0)",
		Claim: "T_B = Θ̃(n/√k): at fixed n the log-log slope of T_B vs k is ≈ -0.5 (Theorems 1-2)",
	}
	e.Run = func(p Params) (*Result, error) {
		res := e.newResult()
		side := p.scaledSide(128)
		g, err := grid.New(side)
		if err != nil {
			return nil, err
		}
		n := g.N()
		reps := p.reps(12)
		ks := sparseKs(n, 8, 16, 32, 64, 128, 256, 512)

		sp := sweep.Spec{
			Label: fmt.Sprintf("E1: T_B vs k (n=%d, r=0)", n),
			Base: scenario.Spec{Engine: scenario.EngineBroadcast, Nodes: n, Agents: ks[0],
				Radius: 0, Seed: p.Seed, Source: 0, Reps: reps},
			Axes: []sweep.Axis{{Field: "agents", Values: intValues(ks)}},
			Fit:  "agents",
		}
		swres, pts, err := runScenarioSweep(p, "E1", sp, true, repSteps)
		if err != nil {
			return nil, err
		}

		table := tableio.NewTable(
			fmt.Sprintf("Median T_B, n=%d, r=0, %d reps", n, reps),
			"k", "median T_B", "mean", "stddev", "n/sqrt(k)", "T_B/(n/sqrt(k))")
		envelope := plot.Series{Name: "n/sqrt(k)"}
		for i, pt := range pts {
			k := ks[i]
			scale := theory.BroadcastScale(n, k)
			table.AddRow(k, pt.Sum.Median, pt.Sum.Mean, pt.Sum.StdDev, scale, pt.Sum.Median/scale)
			envelope.X = append(envelope.X, float64(k))
			envelope.Y = append(envelope.Y, scale)
			p.logf("E1: k=%d median T_B=%.0f (%d reps)", k, pt.Sum.Median, reps)
		}
		res.Tables = append(res.Tables, table)

		fit := swres.Fit
		res.AddFinding("power-law fit of median T_B vs k: %s", fit)
		res.AddFinding("paper predicts exponent -0.5 (±polylog drift); Wang et al. [28] would predict ≈ -1")
		res.Verdict = exponentVerdict(fit.Alpha, -0.5, 0.2, 0.35)

		res.Figures = append(res.Figures, plot.Figure{
			Title:  fmt.Sprintf("E1: T_B vs k (n=%d, r=0)", n),
			XLabel: "k", YLabel: "T_B", LogX: true, LogY: true,
			Series: []plot.Series{medianSeries("median T_B", pts), envelope},
		})
		return res, nil
	}
	return e
}
