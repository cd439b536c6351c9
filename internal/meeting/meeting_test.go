package meeting

import (
	"math"
	"testing"

	"mobilenet/internal/grid"
	"mobilenet/internal/theory"
)

func TestTrialValidation(t *testing.T) {
	t.Parallel()
	bad := []Trial{
		{Distance: 0, Trials: 10},
		{Distance: -1, Trials: 10},
		{Distance: 4, Trials: 0},
		{Distance: 4, Trials: 10, Horizon: -1},
	}
	for i, tr := range bad {
		if _, err := MeetingProbability(tr); err == nil {
			t.Errorf("case %d: MeetingProbability accepted invalid trial", i)
		}
		if _, err := HittingProbability(tr); err == nil {
			t.Errorf("case %d: HittingProbability accepted invalid trial", i)
		}
	}
}

func TestArenaGeometry(t *testing.T) {
	t.Parallel()
	for _, d := range []int{1, 2, 5, 16, 40} {
		g, a, b := arena(d)
		if !g.Contains(a) || !g.Contains(b) {
			t.Fatalf("d=%d: start nodes off-grid", d)
		}
		if got := grid.ManhattanPoints(a, b); got != d {
			t.Fatalf("d=%d: separation %d", d, got)
		}
		// Starts are far from the boundary relative to d (>= d nodes).
		if d >= 2 {
			if a.X < int32(d) || b.X > int32(g.Side())-int32(d) {
				t.Fatalf("d=%d: starts too close to boundary", d)
			}
		}
	}
}

func TestInLens(t *testing.T) {
	t.Parallel()
	a0 := grid.Point{X: 10, Y: 10}
	b0 := grid.Point{X: 14, Y: 10}
	d := 4
	cases := []struct {
		p    grid.Point
		want bool
	}{
		{grid.Point{X: 12, Y: 10}, true},  // midpoint
		{grid.Point{X: 10, Y: 10}, true},  // a0 itself (distance d from b0)
		{grid.Point{X: 14, Y: 10}, true},  // b0 itself
		{grid.Point{X: 12, Y: 12}, true},  // 2+2 from both
		{grid.Point{X: 9, Y: 10}, false},  // distance 5 from b0
		{grid.Point{X: 12, Y: 14}, false}, // distance 6 from both
	}
	for _, tc := range cases {
		if got := inLens(tc.p, a0, b0, d); got != tc.want {
			t.Errorf("inLens(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestMeetingProbabilityD1(t *testing.T) {
	t.Parallel()
	// At d=1 the walks are adjacent; meeting within 1 step happens exactly
	// when they move onto the same node. The probability is substantial.
	p, err := MeetingProbability(Trial{Distance: 1, Trials: 4000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if p <= 0.02 || p > 1 {
		t.Errorf("d=1 meeting probability = %v, implausible", p)
	}
}

func TestMeetingProbabilityLemma3Bound(t *testing.T) {
	t.Parallel()
	// The paper: P >= c3/log d. With the calibrated DefaultC3 the measured
	// probability should clear the bound at every tested distance.
	for _, d := range []int{2, 4, 8, 16} {
		p, err := MeetingProbability(Trial{Distance: d, Trials: 1500, Seed: uint64(d)})
		if err != nil {
			t.Fatal(err)
		}
		bound := theory.MeetingLowerBound(d, theory.DefaultC3)
		// Allow three standard errors of slack below the bound.
		slack := 3 * math.Sqrt(p*(1-p)/1500)
		if p+slack < bound {
			t.Errorf("d=%d: meeting probability %.4f below bound %.4f", d, p, bound)
		}
	}
}

func TestMeetingProbabilityDecreasesWithDistance(t *testing.T) {
	t.Parallel()
	p2, err := MeetingProbability(Trial{Distance: 2, Trials: 3000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	p32, err := MeetingProbability(Trial{Distance: 32, Trials: 3000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if p32 >= p2 {
		t.Errorf("meeting probability should decrease: d=2 %.3f, d=32 %.3f", p2, p32)
	}
}

func TestHittingProbabilityLemma1Bound(t *testing.T) {
	t.Parallel()
	for _, d := range []int{2, 4, 8, 16} {
		p, err := HittingProbability(Trial{Distance: d, Trials: 1500, Seed: uint64(100 + d)})
		if err != nil {
			t.Fatal(err)
		}
		bound := theory.HittingLowerBound(d, theory.DefaultC1)
		slack := 3 * math.Sqrt(p*(1-p)/1500)
		if p+slack < bound {
			t.Errorf("d=%d: hitting probability %.4f below bound %.4f", d, p, bound)
		}
	}
}

func TestCustomHorizonMonotone(t *testing.T) {
	t.Parallel()
	// A longer horizon can only raise the probability.
	short, err := MeetingProbability(Trial{Distance: 8, Trials: 2000, Seed: 5, Horizon: 16})
	if err != nil {
		t.Fatal(err)
	}
	long, err := MeetingProbability(Trial{Distance: 8, Trials: 2000, Seed: 5, Horizon: 256})
	if err != nil {
		t.Fatal(err)
	}
	if long < short {
		t.Errorf("longer horizon lowered probability: %.3f -> %.3f", short, long)
	}
}

func TestEstimatesDeterministic(t *testing.T) {
	t.Parallel()
	tr := Trial{Distance: 4, Trials: 500, Seed: 11}
	p1, err := MeetingProbability(tr)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := MeetingProbability(tr)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Errorf("estimates differ across runs: %v vs %v", p1, p2)
	}
}

func BenchmarkMeetingProbability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := MeetingProbability(Trial{Distance: 8, Trials: 100, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
