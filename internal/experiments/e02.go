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

// expE02 validates the n-dependence of Theorems 1 and 2: at fixed k and
// r = 0 the broadcast time grows linearly in n (slope ≈ 1 in log-log).
// The measurement is a SweepSpec with a nodes axis over a fixed broadcast
// base, fitted by the sweep layer.
func expE02() Experiment {
	e := Experiment{
		ID:    "E2",
		Title: "Broadcast time vs n (r=0)",
		Claim: "T_B = Θ̃(n/√k): at fixed k the log-log slope of T_B vs n is ≈ 1 (Theorems 1-2)",
	}
	e.Run = func(p Params) (*Result, error) {
		res := e.newResult()
		const k = 64
		reps := p.reps(10)
		var ns []int
		seen := map[int]bool{}
		for _, baseSide := range []int{32, 48, 64, 96, 128, 192} {
			g, err := grid.New(p.scaledSide(baseSide))
			if err != nil {
				return nil, err
			}
			// Scaling can collapse neighbouring sides onto one grid; keep
			// each realised n once, and stay in the sparse regime n >= 2k.
			if n := g.N(); n >= 2*k && !seen[n] {
				seen[n] = true
				ns = append(ns, n)
			}
		}
		if len(ns) < 2 {
			return nil, fmt.Errorf("E2: not enough sweep points at scale %.2f", p.scale())
		}

		sp := sweep.Spec{
			Label: fmt.Sprintf("E2: T_B vs n (k=%d, r=0)", k),
			Base: scenario.Spec{Engine: scenario.EngineBroadcast, Nodes: ns[0], Agents: k,
				Radius: 0, Seed: p.Seed, Source: 0, Reps: reps},
			Axes: []sweep.Axis{{Field: "nodes", Values: intValues(ns)}},
			Fit:  "nodes",
		}
		swres, pts, err := runScenarioSweep(p, "E2", sp, true, repSteps)
		if err != nil {
			return nil, err
		}

		table := tableio.NewTable(
			fmt.Sprintf("Median T_B, k=%d, r=0, %d reps", k, reps),
			"side", "n", "median T_B", "mean", "n/sqrt(k)", "T_B/(n/sqrt(k))")
		envelope := plot.Series{Name: "n/sqrt(k)"}
		for i, pt := range pts {
			n := ns[i]
			g, err := grid.FromNodes(n)
			if err != nil {
				return nil, err
			}
			scale := theory.BroadcastScale(n, k)
			table.AddRow(g.Side(), n, pt.Sum.Median, pt.Sum.Mean, scale, pt.Sum.Median/scale)
			envelope.X = append(envelope.X, float64(n))
			envelope.Y = append(envelope.Y, scale)
			p.logf("E2: n=%d median T_B=%.0f", n, pt.Sum.Median)
		}
		res.Tables = append(res.Tables, table)

		fit := swres.Fit
		res.AddFinding("power-law fit of median T_B vs n: %s", fit)
		res.AddFinding("paper predicts exponent 1.0 (±polylog drift)")
		res.Verdict = exponentVerdict(fit.Alpha, 1.0, 0.2, 0.35)

		res.Figures = append(res.Figures, plot.Figure{
			Title:  fmt.Sprintf("E2: T_B vs n (k=%d, r=0)", k),
			XLabel: "n", YLabel: "T_B", LogX: true, LogY: true,
			Series: []plot.Series{medianSeries("median T_B", pts), envelope},
		})
		return res, nil
	}
	return e
}
