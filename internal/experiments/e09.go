package experiments

import (
	"fmt"
	"math"

	"mobilenet/internal/grid"
	"mobilenet/internal/plot"
	"mobilenet/internal/scenario"
	"mobilenet/internal/sweep"
	"mobilenet/internal/tableio"
)

// expE09 validates Corollary 2: the gossip time (every agent learns every
// one of the k initial rumors) obeys the same Θ̃(n/√k) bound as broadcast.
// One sweep crosses the agent counts with the two engines; both engines of
// a k share the replicate seeds, so the ratio T_G/T_B isolates the
// multi-rumor overhead, which must stay polylogarithmic.
func expE09() Experiment {
	e := Experiment{
		ID:    "E9",
		Title: "Gossip vs broadcast time (Corollary 2)",
		Claim: "T_G = Θ̃(n/√k): gossip stays within polylog factors of broadcast at the same (n, k)",
	}
	e.Run = func(p Params) (*Result, error) {
		res := e.newResult()
		g, err := grid.New(p.scaledSide(64))
		if err != nil {
			return nil, err
		}
		n := g.N()
		reps := p.reps(8)
		ks := sparseKs(n, 16, 32, 64, 128)

		sp := sweep.Spec{
			Label: fmt.Sprintf("E9: T_G and T_B vs k (n=%d, r=0)", n),
			Base: scenario.Spec{Engine: scenario.EngineBroadcast, Nodes: n, Agents: ks[0],
				Radius: 0, Seed: p.Seed, Source: 0, Reps: reps},
			Axes: []sweep.Axis{
				{Field: "agents", Values: intValues(ks)},
				{Field: "engine", Values: []any{scenario.EngineBroadcast, scenario.EngineGossip}},
			},
		}
		_, pts, err := runScenarioSweep(p, "E9", sp, true, repSteps)
		if err != nil {
			return nil, err
		}
		bcastPts, gossipPts := pairs(pts)

		table := tableio.NewTable(
			fmt.Sprintf("Gossip vs broadcast, n=%d, r=0, %d reps", n, reps),
			"k", "median T_B", "median T_G", "T_G/T_B")
		verdict := VerdictPass
		polylogBand := math.Log2(float64(n)) * math.Log2(float64(n))
		for i, k := range ks {
			bc, gs := bcastPts[i], gossipPts[i]
			ratio := gs.Sum.Median / math.Max(1, bc.Sum.Median)
			table.AddRow(k, bc.Sum.Median, gs.Sum.Median, ratio)
			if ratio > polylogBand {
				verdict = worstVerdict(verdict, VerdictFail)
			} else if ratio > polylogBand/4 {
				verdict = worstVerdict(verdict, VerdictWarn)
			}
			p.logf("E9: k=%d T_B=%.0f T_G=%.0f ratio=%.2f", k, bc.Sum.Median, gs.Sum.Median, ratio)
		}
		res.Tables = append(res.Tables, table)

		gfit, err := fitMedians(gossipPts)
		if err != nil {
			return nil, err
		}
		res.AddFinding("gossip power-law fit vs k: %s (broadcast target -0.5)", gfit)
		verdict = worstVerdict(verdict, exponentVerdict(gfit.Alpha, -0.5, 0.25, 0.4))
		res.Verdict = verdict

		res.Figures = append(res.Figures, plot.Figure{
			Title:  fmt.Sprintf("E9: T_G and T_B vs k (n=%d)", n),
			XLabel: "k", YLabel: "time", LogX: true, LogY: true,
			Series: []plot.Series{
				medianSeries("median T_G", gossipPts),
				medianSeries("median T_B", bcastPts),
			},
		})
		return res, nil
	}
	return e
}
