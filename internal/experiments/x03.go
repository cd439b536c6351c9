package experiments

import (
	"fmt"

	"mobilenet/internal/core"
	"mobilenet/internal/grid"
	"mobilenet/internal/mobility"
	"mobilenet/internal/rng"
	"mobilenet/internal/tableio"
	"mobilenet/internal/walk"
)

// expX03 is the laziness ablation: why does the paper use the 1/5-lazy
// kernel instead of the plain simple random walk? On the bipartite grid a
// non-lazy walk preserves coordinate parity, so two walks whose initial
// separation is odd can NEVER meet on a node — r=0 dissemination deadlocks
// for roughly half the agent pairs. The experiment measures (a) pairwise
// meeting frequency by initial-parity class and (b) full-broadcast success
// rates, for both kernels: part (a) is a two-walk trial from a fixed
// separation, part (b) core's broadcast under the lazy walk and under
// mobility.Simple.
func expX03() Experiment {
	e := Experiment{
		ID:    "X3",
		Title: "Laziness ablation: parity deadlock of the simple walk",
		Claim: "Non-lazy walks never meet from odd initial separation (broadcast deadlocks at r=0); the paper's lazy kernel is load-bearing",
	}
	e.Run = func(p Params) (*Result, error) {
		res := e.newResult()
		trials := p.scaledCount(2000, 300)
		const d = 8        // even separation
		const dOdd = d + 1 // odd separation
		const horizon = 4096

		// Part (a): pairwise meeting frequency by kernel and parity.
		type cell struct {
			kernel string
			sep    int
			stepFn func(*grid.Grid, grid.Point, *rng.Source) grid.Point
		}
		cells := []cell{
			{"lazy", d, walk.Step},
			{"lazy", dOdd, walk.Step},
			{"simple", d, walk.SimpleStep},
			{"simple", dOdd, walk.SimpleStep},
		}
		meetTable := tableio.NewTable(
			fmt.Sprintf("Pairwise meeting frequency within %d steps, %d trials", horizon, trials),
			"kernel", "initial separation", "parity", "meet frequency")
		freqs := make([]float64, len(cells))
		for ci, c := range cells {
			c := c
			g := grid.MustNew(6 * dOdd)
			vals, err := runReps(p.Seed, ci, trials, func(seed uint64) (float64, error) {
				src := rng.New(seed)
				ctr := g.Center()
				a := grid.Point{X: ctr.X - int32(c.sep)/2, Y: ctr.Y}
				b := grid.Point{X: a.X + int32(c.sep), Y: ctr.Y}
				for t := 0; t < horizon; t++ {
					a = c.stepFn(g, a, src)
					b = c.stepFn(g, b, src)
					if a == b {
						return 1, nil
					}
				}
				return 0, nil
			})
			if err != nil {
				return nil, err
			}
			sum := 0.0
			for _, v := range vals {
				sum += v
			}
			freqs[ci] = sum / float64(len(vals))
			parity := "even"
			if c.sep%2 == 1 {
				parity = "odd"
			}
			meetTable.AddRow(c.kernel, c.sep, parity, freqs[ci])
			p.logf("X3: %s sep=%d meet freq %.4f", c.kernel, c.sep, freqs[ci])
		}
		res.Tables = append(res.Tables, meetTable)

		verdict := VerdictPass
		// Lazy kernel: both parities meet at comparable, substantial rates
		// (the lazy walk diffuses at 4/5 speed, so the absolute frequency
		// sits below the simple walk's — only positivity and parity
		// balance matter here). Simple kernel: odd parity never meets.
		if freqs[0] < 0.1 || freqs[1] < 0.1 {
			verdict = worstVerdict(verdict, VerdictWarn)
		}
		if ratio := freqs[0] / (freqs[1] + 1e-12); ratio < 0.5 || ratio > 2 {
			verdict = worstVerdict(verdict, VerdictWarn)
		}
		if freqs[3] != 0 {
			verdict = worstVerdict(verdict, VerdictFail)
			res.AddFinding("UNEXPECTED: simple walks met from odd separation %d times", int(freqs[3]*float64(trials)))
		} else {
			res.AddFinding("simple walks from odd separation met in 0/%d trials — the parity obstruction is exact", trials)
		}

		// Part (b): broadcast success at r=0 under both kernels.
		side := p.scaledSide(32)
		g := grid.MustNew(side)
		const k = 12
		breps := p.reps(8)
		stepCap := 200 * side * side
		bTable := tableio.NewTable(
			fmt.Sprintf("Broadcast completion at r=0, side=%d, k=%d, cap=%d steps, %d reps", side, k, stepCap, breps),
			"kernel", "completed runs", "median informed at end")
		for bi, kernel := range []struct {
			name string
			m    mobility.Model
		}{{"lazy", mobility.LazyWalk{}}, {"simple", mobility.Simple{}}} {
			kernel := kernel
			informedCounts, err := runReps(p.Seed, 50+bi, breps, func(seed uint64) (float64, error) {
				b, err := core.NewBroadcast(core.Config{
					Grid: g, K: k, Radius: 0, Seed: seed, Source: 0,
					MaxSteps: stepCap, Mobility: kernel.m,
				})
				if err != nil {
					return 0, err
				}
				b.Run()
				return float64(b.InformedCount()), nil
			})
			if err != nil {
				return nil, err
			}
			completed := 0
			for _, inf := range informedCounts {
				if inf == k {
					completed++
				}
			}
			pt := summarizePoint(float64(bi), informedCounts)
			bTable.AddRow(kernel.name, fmt.Sprintf("%d/%d", completed, breps), pt.Sum.Median)
			p.logf("X3: kernel=%s completed %d/%d", kernel.name, completed, breps)
			if kernel.name == "lazy" && completed < breps {
				verdict = worstVerdict(verdict, VerdictWarn)
			}
			if kernel.name == "simple" && completed == breps {
				// All k agents sharing one parity class has probability
				// 2^-(k-1); universal completion would contradict the
				// obstruction.
				verdict = worstVerdict(verdict, VerdictWarn)
				res.AddFinding("unexpected: simple-kernel broadcast completed in every replicate")
			}
		}
		res.Tables = append(res.Tables, bTable)
		res.Verdict = verdict
		res.AddFinding("the 1/5-lazy kernel is not a convenience: it is what makes r=0 dissemination possible at all")
		return res, nil
	}
	return e
}
