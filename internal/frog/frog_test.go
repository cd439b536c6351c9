package frog

import (
	"testing"

	"mobilenet/internal/grid"
)

func cfg(side, k, r int, seed uint64) Config {
	return Config{Grid: grid.MustNew(side), K: k, Radius: r, Seed: seed, Source: 0}
}

func TestValidation(t *testing.T) {
	t.Parallel()
	g := grid.MustNew(8)
	bad := []Config{
		{K: 3},
		{Grid: g, K: 0},
		{Grid: g, K: 3, Source: 3},
		{Grid: g, K: 3, Source: -2},
		{Grid: g, K: 3, MaxSteps: -1},
		{Grid: g, K: 3, Radius: -1},
	}
	for i, c := range bad {
		if _, err := New(c); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestFrogCompletes(t *testing.T) {
	t.Parallel()
	res, err := RunFrog(cfg(8, 5, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("frog run incomplete: %+v", res)
	}
}

func TestSingleFrogInstant(t *testing.T) {
	t.Parallel()
	res, err := RunFrog(cfg(8, 1, 0, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.Steps != 0 {
		t.Fatalf("single frog: %+v", res)
	}
}

func TestGiantRadiusWakesEveryoneInstantly(t *testing.T) {
	t.Parallel()
	res, err := RunFrog(cfg(8, 6, 14, 3))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.Steps != 0 {
		t.Fatalf("grid-wide radius frog: %+v", res)
	}
}

func TestSleepersDoNotMove(t *testing.T) {
	t.Parallel()
	s, err := New(cfg(16, 6, 0, 5))
	if err != nil {
		t.Fatal(err)
	}
	// Record positions of sleeping agents, step a few times, verify the
	// ones that remained asleep never moved.
	type frozen struct {
		idx int
		pos grid.Point
	}
	var sleepers []frozen
	for i := 0; i < 6; i++ {
		if !s.Active(i) {
			sleepers = append(sleepers, frozen{i, s.pop.Position(i)})
		}
	}
	for step := 0; step < 20 && !s.Done(); step++ {
		s.Step()
		for _, f := range sleepers {
			if !s.Active(f.idx) && s.pop.Position(f.idx) != f.pos {
				t.Fatalf("sleeping agent %d moved", f.idx)
			}
		}
	}
}

func TestActiveCountMonotone(t *testing.T) {
	t.Parallel()
	s, err := New(cfg(10, 8, 0, 7))
	if err != nil {
		t.Fatal(err)
	}
	prev := s.ActiveCount()
	if prev < 1 {
		t.Fatalf("no active agent at t=0")
	}
	for step := 0; step < 500 && !s.Done(); step++ {
		s.Step()
		if s.ActiveCount() < prev {
			t.Fatalf("active count decreased at t=%d", s.Time())
		}
		prev = s.ActiveCount()
	}
}

func TestChainedWakeups(t *testing.T) {
	t.Parallel()
	// Source at (0,0); sleepers at distance 1 chained: with radius 1 the
	// whole chain wakes at t=0 because wake-ups flood components.
	c := cfg(10, 4, 1, 11)
	s, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	s.pop.SetPosition(0, grid.Point{X: 0, Y: 0})
	s.pop.SetPosition(1, grid.Point{X: 1, Y: 0})
	s.pop.SetPosition(2, grid.Point{X: 2, Y: 0})
	s.pop.SetPosition(3, grid.Point{X: 3, Y: 0})
	// Re-run the wake pass on the arranged configuration.
	s.active.Remove(1)
	s.active.Remove(2)
	s.active.Remove(3)
	s.wake()
	if !s.Done() {
		t.Fatalf("chain did not fully wake: %d active", s.ActiveCount())
	}
}

func TestDeterministicBySeed(t *testing.T) {
	t.Parallel()
	r1, err := RunFrog(cfg(9, 5, 0, 13))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunFrog(cfg(9, 5, 0, 13))
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatalf("frog model not deterministic: %+v vs %+v", r1, r2)
	}
}

func TestMaxStepsCap(t *testing.T) {
	t.Parallel()
	c := cfg(64, 2, 0, 17)
	c.MaxSteps = 2
	res, err := RunFrog(c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed {
		t.Skip("improbable instant completion")
	}
	if res.Steps != 2 {
		t.Errorf("capped Steps = %d, want 2", res.Steps)
	}
}

func BenchmarkFrogSmall(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := RunFrog(cfg(24, 12, 0, uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}
