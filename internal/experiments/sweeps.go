package experiments

import (
	"fmt"
	"sync"

	"mobilenet/internal/plot"
	"mobilenet/internal/scenario"
	"mobilenet/internal/stats"
	"mobilenet/internal/sweep"
)

// pointSummary couples one sweep coordinate with its replicate statistics.
type pointSummary struct {
	X      float64
	Values []float64
	Sum    stats.Summary
}

// sweepPoint runs one sweep coordinate: reps replicates of fn with
// deterministic seeds, summarised.
func sweepPoint(master uint64, idx, reps int, x float64, fn func(seed uint64) (float64, error)) (pointSummary, error) {
	vals, err := runReps(master, idx, reps, fn)
	if err != nil {
		return pointSummary{}, err
	}
	s, err := stats.Summarize(vals)
	if err != nil {
		return pointSummary{}, err
	}
	return pointSummary{X: x, Values: vals, Sum: s}, nil
}

// summarizePoint wraps precomputed replicate values as a pointSummary. It
// panics on empty input; callers always supply at least one replicate.
func summarizePoint(x float64, vals []float64) pointSummary {
	s, err := stats.Summarize(vals)
	if err != nil {
		panic(fmt.Sprintf("experiments: summarizePoint on empty sample: %v", err))
	}
	return pointSummary{X: x, Values: vals, Sum: s}
}

// intValues converts an int slice to sweep axis values.
func intValues(vs []int) []any {
	out := make([]any, len(vs))
	for i, v := range vs {
		out[i] = v
	}
	return out
}

// sparseKs keeps the population sizes of the paper's sparse regime
// n >= 2k, in order.
func sparseKs(n int, ks ...int) []int {
	var out []int
	for _, k := range ks {
		if 2*k <= n {
			out = append(out, k)
		}
	}
	return out
}

// repSteps reads a replicate's primary time measurement (T_B, T_G, the
// cover or extinction time): the value most sweeps summarise.
func repSteps(r scenario.Rep) (float64, error) { return float64(r.Steps), nil }

// runScenarioSweep executes a SweepSpec through the sweep subsystem with
// the experiment conventions: progress lines go to Params.Log, and (when
// requireCompleted) a replicate that hits its step cap is an error rather
// than a data point. It returns the sweep result plus each point
// summarised as a pointSummary keyed by its first-axis value, the shape
// the fit/figure helpers consume; value reads the summarised measurement
// off each replicate, and an error from it fails the experiment.
func runScenarioSweep(p Params, id string, sp sweep.Spec, requireCompleted bool, value func(scenario.Rep) (float64, error)) (*sweep.Result, []pointSummary, error) {
	// OnPoint fires from the sweep pool's goroutines, but Params.Log is a
	// plain io.Writer with no concurrency contract — serialise the lines.
	var logMu sync.Mutex
	res, err := sweep.Run(sp, sweep.Options{
		RequireCompleted: requireCompleted,
		OnPoint: func(pt sweep.Point, r *scenario.Result) {
			logMu.Lock()
			defer logMu.Unlock()
			p.logf("%s: point %d done (%d reps)", id, pt.Index, len(r.Reps))
		},
	})
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", id, err)
	}
	pts := make([]pointSummary, len(res.Points))
	for i, pr := range res.Points {
		x, ok := pr.Values[0].(int64)
		if !ok {
			return nil, nil, fmt.Errorf("%s: sweep point %d has non-numeric first axis value %v", id, i, pr.Values[0])
		}
		vals := make([]float64, len(pr.Result.Reps))
		for r, rep := range pr.Result.Reps {
			if vals[r], err = value(rep); err != nil {
				return nil, nil, fmt.Errorf("%s: point %d (%v) rep %d: %w", id, i, pr.Values, r, err)
			}
		}
		pts[i] = summarizePoint(float64(x), vals)
	}
	return res, pts, nil
}

// pairs deals a sweep's points, in expansion order, into the first and
// the second point of each first-axis value: the two-engine and
// two-radius sweeps put exactly two points at every k.
func pairs(pts []pointSummary) (first, second []pointSummary) {
	for i := 0; i+1 < len(pts); i += 2 {
		first = append(first, pts[i])
		second = append(second, pts[i+1])
	}
	return first, second
}

// fitMedians fits a power law through the (X, median) pairs of a sweep.
func fitMedians(pts []pointSummary) (stats.PowerFit, error) {
	if len(pts) < 2 {
		return stats.PowerFit{}, fmt.Errorf("experiments: need >= 2 sweep points, have %d", len(pts))
	}
	xs := make([]float64, len(pts))
	ys := make([]float64, len(pts))
	for i, p := range pts {
		xs[i] = p.X
		ys[i] = p.Sum.Median
	}
	return stats.FitPowerLaw(xs, ys)
}

// medianSeries converts sweep points to a plot series of medians.
func medianSeries(name string, pts []pointSummary) plot.Series {
	s := plot.Series{Name: name}
	for _, p := range pts {
		s.X = append(s.X, p.X)
		s.Y = append(s.Y, p.Sum.Median)
	}
	return s
}

// exponentVerdict classifies a fitted exponent against a target with a pass
// band and a fail band (outside the warn band).
func exponentVerdict(alpha, target, passTol, failTol float64) Verdict {
	d := alpha - target
	if d < 0 {
		d = -d
	}
	switch {
	case d <= passTol:
		return VerdictPass
	case d <= failTol:
		return VerdictWarn
	default:
		return VerdictFail
	}
}

// worstVerdict returns the most severe of two verdicts.
func worstVerdict(a, b Verdict) Verdict {
	if b > a {
		return b
	}
	return a
}
