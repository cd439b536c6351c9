// Package experiments defines the canonical validation suite E1-E17 that
// plays the role of the paper's evaluation section (the paper itself is
// pure theory, so every experiment here validates one theorem, lemma or
// corollary at finite size — see DESIGN.md §5 and EXPERIMENTS.md for the
// mapping).
//
// Each experiment produces tables (the "rows the paper would report"),
// optional figures, prose findings, and a verdict comparing the measured
// shape against the theoretical prediction.
package experiments

import (
	"fmt"
	"io"
	"math"
)

// Verdict classifies how the measurement relates to the paper's claim.
type Verdict int

// Verdict values. Ordered: Pass < Warn < Fail.
const (
	// VerdictPass means the measured shape matches the claim.
	VerdictPass Verdict = iota + 1
	// VerdictWarn means the measurement is consistent but with caveats
	// (e.g. finite-size drift beyond the nominal band).
	VerdictWarn
	// VerdictFail means the measurement contradicts the claim.
	VerdictFail
)

// String implements fmt.Stringer.
func (v Verdict) String() string {
	switch v {
	case VerdictPass:
		return "PASS"
	case VerdictWarn:
		return "WARN"
	case VerdictFail:
		return "FAIL"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

// Params tunes an experiment run.
type Params struct {
	// Reps is the number of Monte-Carlo replicates per sweep point;
	// 0 selects the experiment's default.
	Reps int
	// Seed is the master seed; every replicate derives its own seed
	// deterministically from it. Zero is a valid seed.
	Seed uint64
	// Scale in (0, 1] shrinks problem sizes for quick runs (benchmarks use
	// small scales); 0 selects full scale 1.0.
	Scale float64
	// Log, when non-nil, receives progress lines.
	Log io.Writer
}

func (p Params) scale() float64 {
	if p.Scale <= 0 || p.Scale > 1 {
		return 1
	}
	return p.Scale
}

func (p Params) reps(def int) int {
	if p.Reps > 0 {
		return p.Reps
	}
	if def < 2 {
		def = 2
	}
	return def
}

func (p Params) logf(format string, args ...any) {
	if p.Log != nil {
		fmt.Fprintf(p.Log, format+"\n", args...)
	}
}

// scaledSide shrinks a grid side by sqrt(scale) so the node count scales
// linearly with Params.Scale, clamped to a workable minimum.
func (p Params) scaledSide(base int) int {
	s := p.scale()
	if s >= 1 {
		return base
	}
	side := int(float64(base) * math.Sqrt(s))
	if side < 16 {
		side = 16
	}
	return side
}

// scaledCount shrinks an integer count (trials, steps) linearly with scale,
// clamped below.
func (p Params) scaledCount(base, min int) int {
	v := int(float64(base) * p.scale())
	if v < min {
		v = min
	}
	return v
}
