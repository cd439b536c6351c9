package experiments

import (
	"fmt"

	"mobilenet/internal/barrier"
	"mobilenet/internal/core"
	"mobilenet/internal/grid"
	"mobilenet/internal/plot"
	"mobilenet/internal/rng"
	"mobilenet/internal/tableio"
)

// expX01 implements the paper's stated future work (§4): dissemination on
// planar domains with mobility barriers. It compares broadcast times on an
// open grid, a wall with a narrowing gap, and random obstacle fields.
func expX01() Experiment {
	e := Experiment{
		ID:    "X1",
		Title: "Mobility barriers (paper §4 future work)",
		Claim: "Barriers slow dissemination monotonically with constriction; narrow gaps dominate T_B (extension, not a paper theorem)",
	}
	e.Run = func(p Params) (*Result, error) {
		res := e.newResult()
		side := p.scaledSide(64)
		const k = 32
		reps := p.reps(8)
		maxSteps := 400 * side * side // generous: gap domains are slow

		type scenario struct {
			name  string
			build func(seed uint64) (*barrier.Domain, error)
		}
		scenarios := []scenario{
			{"open", func(uint64) (*barrier.Domain, error) {
				return barrier.NewDomain(grid.MustNew(side))
			}},
			{"wall gap=side/4", func(uint64) (*barrier.Domain, error) {
				d, err := barrier.NewDomain(grid.MustNew(side))
				if err != nil {
					return nil, err
				}
				return d, d.AddWall(side/2, side/4)
			}},
			{"wall gap=2", func(uint64) (*barrier.Domain, error) {
				d, err := barrier.NewDomain(grid.MustNew(side))
				if err != nil {
					return nil, err
				}
				return d, d.AddWall(side/2, 2)
			}},
			{"obstacles 10%", func(seed uint64) (*barrier.Domain, error) {
				d, err := barrier.NewDomain(grid.MustNew(side))
				if err != nil {
					return nil, err
				}
				return d, d.AddRandomObstacles(0.10, rng.New(seed^0xb2))
			}},
			{"obstacles 25%", func(seed uint64) (*barrier.Domain, error) {
				d, err := barrier.NewDomain(grid.MustNew(side))
				if err != nil {
					return nil, err
				}
				return d, d.AddRandomObstacles(0.25, rng.New(seed^0xb3))
			}},
		}

		table := tableio.NewTable(
			fmt.Sprintf("Broadcast with mobility barriers, side=%d, k=%d, r=0, %d reps", side, k, reps),
			"scenario", "median T_B", "mean", "completed", "slowdown vs open")
		bars := plot.Series{Name: "median T_B"}
		var openMedian float64
		verdict := VerdictPass
		for pi, sc := range scenarios {
			sc := sc
			vals, err := runReps(p.Seed, pi, reps, func(seed uint64) (float64, error) {
				d, err := sc.build(seed)
				if err != nil {
					return 0, err
				}
				// Random obstacle fields enclose unreachable free pockets;
				// the domain's walk places agents on the largest connected
				// free component.
				r, err := core.RunBroadcast(core.Config{
					Grid: d.Grid(), K: k, Radius: 0, Seed: seed, Source: 0,
					MaxSteps: maxSteps, Mobility: d.Walk(),
				})
				if err != nil {
					return 0, err
				}
				if !r.Completed {
					return float64(maxSteps), nil // censored observation
				}
				return float64(r.Steps), nil
			})
			if err != nil {
				return nil, err
			}
			// Replicate closures run concurrently, so completions are
			// counted from the returned values: censored runs carry the
			// sentinel maxSteps (a run completing at exactly maxSteps is
			// miscounted as censored, which is harmlessly conservative).
			completed := 0
			for _, v := range vals {
				if v < float64(maxSteps) {
					completed++
				}
			}
			pt := summarizePoint(float64(pi), vals)
			if pi == 0 {
				openMedian = pt.Sum.Median
			}
			slow := pt.Sum.Median / openMedian
			table.AddRow(sc.name, pt.Sum.Median, pt.Sum.Mean,
				fmt.Sprintf("%d/%d", completed, reps), slow)
			bars.X = append(bars.X, float64(pi))
			bars.Y = append(bars.Y, pt.Sum.Median)
			if completed < reps {
				verdict = worstVerdict(verdict, VerdictWarn)
			}
			p.logf("X1: %s median=%.0f (%d/%d complete)", sc.name, pt.Sum.Median, completed, reps)
		}
		res.Tables = append(res.Tables, table)

		// Shape check: the narrow gap must slow dissemination relative to
		// the open domain, and must not be faster than the wide gap. A
		// FAIL needs statistical backing — with fewer than 4 replicates
		// the medians are too noisy to refute the claim, so violations
		// only warn.
		shapeFail := VerdictFail
		if reps < 4 {
			shapeFail = VerdictWarn
		}
		switch {
		case bars.Y[2] < 0.8*bars.Y[0]:
			verdict = worstVerdict(verdict, shapeFail)
		case bars.Y[2] <= bars.Y[0]:
			verdict = worstVerdict(verdict, VerdictWarn)
		}
		if bars.Y[1] > bars.Y[2] {
			verdict = worstVerdict(verdict, VerdictWarn)
		}
		res.Verdict = verdict
		res.AddFinding("narrow gaps dominate broadcast time; moderate random obstacle fields cost little (walk remains rapidly mixing)")
		res.AddFinding("communication penetrates walls in this model (radio vs mobility barriers) — see internal/barrier package comment")

		res.Figures = append(res.Figures, plot.Figure{
			Title:  fmt.Sprintf("X1: T_B under mobility barriers (side=%d, k=%d)", side, k),
			XLabel: "scenario index", YLabel: "median T_B", LogY: true,
			Series: []plot.Series{bars},
		})
		return res, nil
	}
	return e
}
