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

// expX05 sweeps the rumor count |M| of the paper's §2 general gossip
// setting: T_G(|M|) interpolates between broadcast (|M| = 1) and the
// classical all-to-all (|M| = k). Since T_G(|M|) is the maximum of |M|
// dependent broadcast-like completions, it should grow only sub-
// logarithmically with |M| — all within the Θ̃(n/√k) class of Corollary 2.
// The measurement is one gossip sweep over the rumor count.
func expX05() Experiment {
	e := Experiment{
		ID:    "X5",
		Title: "Gossip vs rumor count (§2 general setting)",
		Claim: "T_G(|M|) grows from T_B to the all-to-all time by at most a small (log-like) factor — every |M| obeys the same Θ̃(n/√k) bound",
	}
	e.Run = func(p Params) (*Result, error) {
		res := e.newResult()
		g, err := grid.New(p.scaledSide(64))
		if err != nil {
			return nil, err
		}
		n := g.N()
		const k = 64
		if n < 2*k {
			return nil, fmt.Errorf("X5: grid too small at scale %.2f", p.scale())
		}
		reps := p.reps(8)
		rumorCounts := []int{1, 2, 4, 16, 64}

		sp := sweep.Spec{
			Label: fmt.Sprintf("X5: T_G vs rumor count (n=%d, k=%d, r=0)", n, k),
			Base: scenario.Spec{Engine: scenario.EngineGossip, Nodes: n, Agents: k,
				Radius: 0, Seed: p.Seed, Reps: reps},
			Axes: []sweep.Axis{{Field: "rumors", Values: intValues(rumorCounts)}},
		}
		_, pts, err := runScenarioSweep(p, "X5", sp, true, repSteps)
		if err != nil {
			return nil, err
		}

		table := tableio.NewTable(
			fmt.Sprintf("Gossip time vs rumor count, n=%d, k=%d, r=0, %d reps", n, k, reps),
			"|M|", "median T_G", "mean", "T_G(|M|)/T_G(1)")
		base := pts[0].Sum.Median
		for i, m := range rumorCounts {
			pt := pts[i]
			table.AddRow(m, pt.Sum.Median, pt.Sum.Mean, pt.Sum.Median/math.Max(1, base))
			p.logf("X5: |M|=%d median T_G=%.0f", m, pt.Sum.Median)
		}
		res.Tables = append(res.Tables, table)

		verdict := VerdictPass
		// Monotone (non-decreasing medians, modest noise tolerance) and a
		// bounded total growth: |M| from 1 to k should cost well under the
		// polylog band.
		growth := pts[len(pts)-1].Sum.Median / math.Max(1, base)
		res.AddFinding("T_G(|M|=k)/T_G(|M|=1) = %.2f — the all-to-all problem costs a small factor over broadcast", growth)
		if growth > math.Log2(float64(n)) {
			verdict = worstVerdict(verdict, VerdictWarn)
		}
		for i := 1; i < len(pts); i++ {
			if pts[i].Sum.Median < pts[i-1].Sum.Median*0.7 {
				verdict = worstVerdict(verdict, VerdictWarn)
				res.AddFinding("non-monotone dip at |M|=%d (noise beyond tolerance)", int(pts[i].X))
			}
		}
		res.Verdict = verdict

		res.Figures = append(res.Figures, plot.Figure{
			Title:  fmt.Sprintf("X5: T_G vs rumor count (n=%d, k=%d)", n, k),
			XLabel: "|M|", YLabel: "median T_G", LogX: true,
			Series: []plot.Series{medianSeries("median T_G", pts)},
		})
		return res, nil
	}
	return e
}
