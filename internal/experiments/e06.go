package experiments

import (
	"fmt"
	"math"

	"mobilenet/internal/plot"
	"mobilenet/internal/scenario"
	"mobilenet/internal/sweep"
	"mobilenet/internal/tableio"
	"mobilenet/internal/theory"
)

// expE06 validates Lemma 3: the probability that two walks starting at
// distance d meet within d^2 steps at a node of the shared lens D is at
// least c3/log d — equivalently, p(d)·max(1, ln d) is bounded below by a
// positive constant. The measurement rides the sweep subsystem via the
// scenario layer's "meeting" engine: one replicate is one trial, a
// distance is one sweep point (radius axis), and p(d) is the completed
// fraction of a point's replicates.
func expE06() Experiment {
	e := Experiment{
		ID:    "E6",
		Title: "Two-walk meeting probability (Lemma 3)",
		Claim: "P[meet in D within d²] ≥ c3/max(1, log d): the product p(d)·log d stays bounded below by a constant",
	}
	e.Run = func(p Params) (*Result, error) {
		res := e.newResult()
		trials := p.scaledCount(3000, 300)
		ds := []int{2, 4, 8, 16, 32, 64}

		sp := sweep.Spec{
			Label: "E6: meeting probability vs d",
			Base: scenario.Spec{Engine: scenario.EngineMeeting, Nodes: 64, Agents: 2,
				Radius: ds[0], Seed: p.Seed, Reps: trials},
			Axes: []sweep.Axis{{Field: "radius", Values: intValues(ds)}},
		}
		// Not meeting within the horizon is a legitimate trial outcome,
		// so capped replicates must NOT be errors here.
		swres, _, err := runScenarioSweep(p, "E6", sp, false, repSteps)
		if err != nil {
			return nil, err
		}

		table := tableio.NewTable(
			fmt.Sprintf("Meeting probability, %d trials per distance", trials),
			"d", "T=d^2", "p(d)", "p(d)*max(1,ln d)", "bound c3/max(1,ln d)")
		product := plot.Series{Name: "p(d)·max(1,ln d)"}
		minProduct := math.Inf(1)
		for i, pr := range swres.Points {
			d := ds[i]
			met := 0
			for _, rep := range pr.Result.Reps {
				if rep.Completed {
					met++
				}
			}
			prob := float64(met) / float64(len(pr.Result.Reps))
			logD := math.Max(1, math.Log(float64(d)))
			prod := prob * logD
			bound := theory.MeetingLowerBound(d, theory.DefaultC3)
			table.AddRow(d, d*d, prob, prod, bound)
			product.X = append(product.X, float64(d))
			product.Y = append(product.Y, prod)
			if prod < minProduct {
				minProduct = prod
			}
			p.logf("E6: d=%d p=%.4f p*logd=%.4f", d, prob, prod)
		}
		res.Tables = append(res.Tables, table)

		res.AddFinding("min over d of p(d)·max(1, ln d) = %.4f (calibrated c3 = %.2f)", minProduct, theory.DefaultC3)
		switch {
		case minProduct >= theory.DefaultC3:
			res.Verdict = VerdictPass
		case minProduct >= theory.DefaultC3/2:
			res.Verdict = VerdictWarn
		default:
			res.Verdict = VerdictFail
		}

		res.Figures = append(res.Figures, plot.Figure{
			Title:  "E6: meeting probability scaled by log d",
			XLabel: "initial distance d", YLabel: "p(d)·max(1,ln d)", LogX: true,
			Series: []plot.Series{product},
		})
		return res, nil
	}
	return e
}
