package percolation

import (
	"math"
	"testing"

	"mobilenet/internal/grid"
	"mobilenet/internal/theory"
	"mobilenet/internal/visibility"
)

func pt(x, y int32) grid.Point { return grid.Point{X: x, Y: y} }

func TestSnapshotHandComputed(t *testing.T) {
	t.Parallel()
	// Two pairs and one singleton at r=1.
	pos := []grid.Point{pt(0, 0), pt(0, 1), pt(5, 5), pt(5, 6), pt(9, 0)}
	c := Snapshot(pos, 1, nil)
	if c.Components != 3 {
		t.Errorf("Components = %d, want 3", c.Components)
	}
	if c.MaxSize != 2 || c.SecondSize != 2 {
		t.Errorf("MaxSize/SecondSize = %d/%d, want 2/2", c.MaxSize, c.SecondSize)
	}
	if c.Isolated != 1 {
		t.Errorf("Isolated = %d, want 1", c.Isolated)
	}
	if math.Abs(c.MeanSize-5.0/3.0) > 1e-12 {
		t.Errorf("MeanSize = %v", c.MeanSize)
	}
	if math.Abs(c.GiantFraction-0.4) > 1e-12 {
		t.Errorf("GiantFraction = %v", c.GiantFraction)
	}
}

func TestSnapshotEmpty(t *testing.T) {
	t.Parallel()
	c := Snapshot(nil, 3, nil)
	if c.Components != 0 || c.MaxSize != 0 {
		t.Errorf("empty snapshot: %+v", c)
	}
}

func TestSnapshotAllConnected(t *testing.T) {
	t.Parallel()
	pos := []grid.Point{pt(0, 0), pt(1, 0), pt(2, 0)}
	c := Snapshot(pos, 2, visibility.NewLabeller(3))
	if c.Components != 1 || c.MaxSize != 3 || c.GiantFraction != 1 || c.SecondSize != 0 {
		t.Errorf("connected snapshot: %+v", c)
	}
}

func TestSweepValidation(t *testing.T) {
	t.Parallel()
	g := grid.MustNew(8)
	bad := []Sweep{
		{K: 4, Radii: []int{1}},
		{Grid: g, K: 0, Radii: []int{1}},
		{Grid: g, K: 4},
		{Grid: g, K: 4, Radii: []int{-1}},
		{Grid: g, K: 4, Radii: []int{1}, Replicates: -1},
	}
	for i, s := range bad {
		s := s
		if _, err := s.Run(); err == nil {
			t.Errorf("case %d: invalid sweep accepted", i)
		}
	}
}

func TestSweepGiantTransition(t *testing.T) {
	t.Parallel()
	// n=4096, k=256: r_c = sqrt(16) = 4. Far below r_c the giant fraction
	// is tiny; far above it is near 1.
	g := grid.MustNew(64)
	k := 256
	rc := theory.PercolationRadius(g.N(), k)
	s := Sweep{
		Grid:       g,
		K:          k,
		Radii:      []int{0, int(rc / 2), int(rc * 3)},
		Replicates: 6,
		Seed:       1,
	}
	rows, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].MeanGiantFraction > 0.1 {
		t.Errorf("r=0 giant fraction %.3f, want tiny", rows[0].MeanGiantFraction)
	}
	if rows[1].MeanGiantFraction > 0.5 {
		t.Errorf("r=rc/2 giant fraction %.3f, want subcritical", rows[1].MeanGiantFraction)
	}
	if rows[2].MeanGiantFraction < 0.9 {
		t.Errorf("r=3rc giant fraction %.3f, want supercritical", rows[2].MeanGiantFraction)
	}
	// Giant fraction is monotone in r for this sweep.
	if !(rows[0].MeanGiantFraction <= rows[1].MeanGiantFraction &&
		rows[1].MeanGiantFraction <= rows[2].MeanGiantFraction) {
		t.Errorf("giant fraction not monotone: %+v", rows)
	}
}

func TestSweepRowShape(t *testing.T) {
	t.Parallel()
	g := grid.MustNew(16)
	s := Sweep{Grid: g, K: 8, Radii: []int{0, 2}, Replicates: 3, Seed: 2}
	rows, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, row := range rows {
		if row.MeanMaxSize < 1 || row.MeanMaxSize > 8 {
			t.Errorf("r=%d: MeanMaxSize %v out of [1,8]", row.Radius, row.MeanMaxSize)
		}
		if row.MaxMaxSize < int(row.MeanMaxSize) {
			t.Errorf("r=%d: MaxMaxSize %d below mean %v", row.Radius, row.MaxMaxSize, row.MeanMaxSize)
		}
		if row.MeanComponents < 1 || row.MeanComponents > 8 {
			t.Errorf("r=%d: MeanComponents %v", row.Radius, row.MeanComponents)
		}
	}
}

func TestSweepDeterministic(t *testing.T) {
	t.Parallel()
	g := grid.MustNew(16)
	mk := func() []SweepRow {
		s := Sweep{Grid: g, K: 12, Radii: []int{1, 3}, Replicates: 4, Seed: 9}
		rows, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sweep not deterministic: %+v vs %+v", a[i], b[i])
		}
	}
}

func TestEstimateRC(t *testing.T) {
	t.Parallel()
	// n=4096, k=256: theory r_c = 4. The empirical 0.5-crossing should land
	// within a small constant factor of it.
	g := grid.MustNew(64)
	rc, err := EstimateRC(g, 256, 6, 0.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := theory.PercolationRadius(g.N(), 256)
	if float64(rc) < want/2 || float64(rc) > want*3 {
		t.Errorf("empirical r_c = %d, theory %v — outside [0.5, 3]x band", rc, want)
	}
}

func TestEstimateRCMonotoneInK(t *testing.T) {
	t.Parallel()
	// Denser populations percolate at smaller radii.
	g := grid.MustNew(48)
	rcSparse, err := EstimateRC(g, 64, 5, 0.5, 7)
	if err != nil {
		t.Fatal(err)
	}
	rcDense, err := EstimateRC(g, 512, 5, 0.5, 7)
	if err != nil {
		t.Fatal(err)
	}
	if rcDense >= rcSparse {
		t.Errorf("r_c did not shrink with density: k=64 -> %d, k=512 -> %d", rcSparse, rcDense)
	}
}

func TestEstimateRCValidation(t *testing.T) {
	t.Parallel()
	g := grid.MustNew(16)
	if _, err := EstimateRC(nil, 8, 2, 0.5, 1); err == nil {
		t.Error("nil grid accepted")
	}
	if _, err := EstimateRC(g, 1, 2, 0.5, 1); err == nil {
		t.Error("k=1 accepted")
	}
	if _, err := EstimateRC(g, 8, 0, 0.5, 1); err == nil {
		t.Error("replicates=0 accepted")
	}
	if _, err := EstimateRC(g, 8, 2, 0, 1); err == nil {
		t.Error("threshold=0 accepted")
	}
	if _, err := EstimateRC(g, 8, 2, 1.5, 1); err == nil {
		t.Error("threshold>1 accepted")
	}
}

func TestEstimateRCDeterministic(t *testing.T) {
	t.Parallel()
	g := grid.MustNew(32)
	a, err := EstimateRC(g, 64, 4, 0.5, 11)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EstimateRC(g, 64, 4, 0.5, 11)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("EstimateRC not deterministic: %d vs %d", a, b)
	}
}

func BenchmarkSnapshot(b *testing.B) {
	g := grid.MustNew(64)
	s := Sweep{Grid: g, K: 256, Radii: []int{4}, Replicates: 1, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Seed = uint64(i)
		if _, err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
