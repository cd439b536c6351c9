package experiments

import (
	"fmt"

	"mobilenet/internal/grid"
	"mobilenet/internal/tableio"
	"mobilenet/internal/walk"
)

// expX07 is the boundary ablation. The paper's Lemma 1 handles the grid
// boundary with the reflection principle, arguing it changes hitting
// probabilities only by constants. Running identical broadcasts on the
// bounded grid and on the torus (no boundary at all) makes that claim
// measurable: the two medians should agree within a small constant factor
// at every k.
func expX07() Experiment {
	e := Experiment{
		ID:    "X7",
		Title: "Boundary ablation: bounded grid vs torus",
		Claim: "Boundary effects cost only constants: bounded-grid and torus broadcast times agree within a small factor (Lemma 1's reflection argument)",
	}
	e.Run = func(p Params) (*Result, error) {
		res := e.newResult()
		side := p.scaledSide(96)
		g, err := grid.New(side)
		if err != nil {
			return nil, err
		}
		n := g.N()
		reps := p.reps(8)
		ks := []int{16, 64, 256}

		table := tableio.NewTable(
			fmt.Sprintf("Bounded vs torus broadcast (r=0), n=%d, %d reps", n, reps),
			"k", "median T_B bounded", "median T_B torus", "bounded/torus")
		verdict := VerdictPass
		for pi, k := range ks {
			if 2*k > n {
				continue
			}
			k := k
			stepCap := 4000 * side * side / k // generous Õ(n/√k) headroom
			bounded, err := sweepPoint(p.Seed, pi, reps, float64(k), kernelTime(g, k, walk.Step, stepCap))
			if err != nil {
				return nil, err
			}
			torus, err := sweepPoint(p.Seed, 30+pi, reps, float64(k), kernelTime(g, k, walk.TorusStep, stepCap))
			if err != nil {
				return nil, err
			}
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
