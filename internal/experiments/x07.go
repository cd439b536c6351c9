package experiments

import (
	"fmt"

	"mobilenet/internal/grid"
	"mobilenet/internal/scenario"
	"mobilenet/internal/sweep"
	"mobilenet/internal/tableio"
)

// expX07 is the boundary ablation. The paper's Lemma 1 handles the grid
// boundary with the reflection principle, arguing it changes hitting
// probabilities only by constants. Running identical broadcasts on the
// bounded grid and on the torus (no boundary at all) makes that claim
// measurable: the two medians should agree within a small constant factor
// at every k. One sweep crosses the agent counts with the lazy and torus
// mobility models; both models of a k share the replicate seeds.
func expX07() Experiment {
	e := Experiment{
		ID:    "X7",
		Title: "Boundary ablation: bounded grid vs torus",
		Claim: "Boundary effects cost only constants: bounded-grid and torus broadcast times agree within a small factor (Lemma 1's reflection argument)",
	}
	e.Run = func(p Params) (*Result, error) {
		res := e.newResult()
		g, err := grid.New(p.scaledSide(96))
		if err != nil {
			return nil, err
		}
		n := g.N()
		reps := p.reps(8)
		ks := sparseKs(n, 16, 64, 256)

		sp := sweep.Spec{
			Label: fmt.Sprintf("X7: bounded vs torus T_B vs k (n=%d, r=0)", n),
			Base: scenario.Spec{Engine: scenario.EngineBroadcast, Nodes: n, Agents: ks[0],
				Radius: 0, Seed: p.Seed, Source: 0, Reps: reps},
			Axes: []sweep.Axis{
				{Field: "agents", Values: intValues(ks)},
				{Field: "mobility", Values: []any{"lazy", "torus"}},
			},
		}
		_, pts, err := runScenarioSweep(p, "X7", sp, true, repSteps)
		if err != nil {
			return nil, err
		}
		boundedPts, torusPts := pairs(pts)

		table := tableio.NewTable(
			fmt.Sprintf("Bounded vs torus broadcast (r=0), n=%d, %d reps", n, reps),
			"k", "median T_B bounded", "median T_B torus", "bounded/torus")
		verdict := VerdictPass
		for i, k := range ks {
			bounded, torus := boundedPts[i], torusPts[i]
			ratio := bounded.Sum.Median / torus.Sum.Median
			table.AddRow(k, bounded.Sum.Median, torus.Sum.Median, ratio)
			// Boundaries slow meetings slightly (reflection concentrates
			// walks); a ratio far from 1 in either direction would
			// contradict the constants-only claim.
			if ratio > 3 || ratio < 1.0/3 {
				verdict = worstVerdict(verdict, VerdictWarn)
			}
			if ratio > 8 || ratio < 1.0/8 {
				verdict = worstVerdict(verdict, VerdictFail)
			}
			p.logf("X7: k=%d bounded=%.0f torus=%.0f ratio=%.2f", k, bounded.Sum.Median, torus.Sum.Median, ratio)
		}
		res.Tables = append(res.Tables, table)
		res.Verdict = verdict
		res.AddFinding("removing the boundary entirely moves T_B by a small constant factor — consistent with the reflection-principle treatment in Lemma 1")
		return res, nil
	}
	return e
}
