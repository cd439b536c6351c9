package visibility

import (
	"testing"
	"testing/quick"

	"mobilenet/internal/bitset"
	"mobilenet/internal/grid"
	"mobilenet/internal/rng"
	"mobilenet/internal/walk"
)

// pt builds a grid.Point tersely for test fixtures.
func pt(x, y int32) grid.Point { return grid.Point{X: x, Y: y} }

// bruteComponents computes component labels by Floyd-Warshall-style
// transitive closure, the obviously-correct reference.
func bruteComponents(pos []grid.Point, r int) ([]int, int) {
	k := len(pos)
	parent := make([]int, k)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			x = parent[x]
		}
		return x
	}
	if r >= 0 {
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				if grid.ManhattanPoints(pos[i], pos[j]) <= r {
					ri, rj := find(i), find(j)
					if ri != rj {
						parent[ri] = rj
					}
				}
			}
		}
	}
	labels := make([]int, k)
	index := map[int]int{}
	for i := 0; i < k; i++ {
		root := find(i)
		l, ok := index[root]
		if !ok {
			l = len(index)
			index[root] = l
		}
		labels[i] = l
	}
	return labels, len(index)
}

func sameGrouping(a []int32, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		for j := range a {
			if (a[i] == a[j]) != (b[i] == b[j]) {
				return false
			}
		}
	}
	return true
}

func TestComponentsAgainstBruteForce(t *testing.T) {
	t.Parallel()
	src := rng.New(1)
	l := NewLabeller(40)
	for trial := 0; trial < 50; trial++ {
		k := 1 + src.Intn(40)
		pos := make([]grid.Point, k)
		for i := range pos {
			pos[i] = grid.Point{X: int32(src.Intn(32)), Y: int32(src.Intn(32))}
		}
		for _, r := range []int{0, 1, 2, 3, 5, 8, 64} {
			labels, count := l.Components(pos, r)
			want, wantCount := bruteComponents(pos, r)
			if count != wantCount {
				t.Fatalf("trial %d r=%d: count %d, want %d", trial, r, count, wantCount)
			}
			if !sameGrouping(labels, want) {
				t.Fatalf("trial %d r=%d: grouping mismatch\npos=%v\ngot=%v\nwant=%v",
					trial, r, pos, labels, want)
			}
		}
	}
}

func TestComponentsR0CoLocation(t *testing.T) {
	t.Parallel()
	pos := []grid.Point{pt(3, 3), pt(3, 3), pt(4, 3), pt(3, 3), pt(9, 9)}
	l := NewLabeller(len(pos))
	labels, count := l.Components(pos, 0)
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
	if labels[0] != labels[1] || labels[1] != labels[3] {
		t.Error("co-located agents not grouped")
	}
	if labels[0] == labels[2] || labels[0] == labels[4] || labels[2] == labels[4] {
		t.Error("distinct nodes grouped at r=0")
	}
}

func TestComponentsNegativeRadius(t *testing.T) {
	t.Parallel()
	pos := []grid.Point{pt(1, 1), pt(1, 1), pt(1, 1)}
	l := NewLabeller(3)
	labels, count := l.Components(pos, -1)
	if count != 3 {
		t.Fatalf("negative radius: count = %d, want all singletons", count)
	}
	if labels[0] == labels[1] || labels[1] == labels[2] {
		t.Error("negative radius connected agents")
	}
}

func TestComponentsChainTransitivity(t *testing.T) {
	t.Parallel()
	// Chain of agents spaced exactly r apart: all one component even though
	// the endpoints are far apart.
	pos := []grid.Point{pt(0, 0), pt(2, 0), pt(4, 0), pt(6, 0), pt(8, 0)}
	l := NewLabeller(len(pos))
	_, count := l.Components(pos, 2)
	if count != 1 {
		t.Fatalf("chain with spacing=r: %d components, want 1", count)
	}
	// Spacing r+1 disconnects everything.
	_, count = l.Components(pos, 1)
	if count != len(pos) {
		t.Fatalf("chain with spacing>r: %d components, want %d", count, len(pos))
	}
}

func TestComponentsExactManhattanBoundary(t *testing.T) {
	t.Parallel()
	// Diagonal pair at Manhattan distance 2 (Chebyshev 1): connected at
	// r=2, not at r=1. This distinguishes Manhattan from Chebyshev.
	pos := []grid.Point{pt(5, 5), pt(6, 6)}
	l := NewLabeller(2)
	if _, count := l.Components(pos, 2); count != 1 {
		t.Error("diagonal pair at L1 distance 2 not connected at r=2")
	}
	if _, count := l.Components(pos, 1); count != 2 {
		t.Error("diagonal pair at L1 distance 2 connected at r=1")
	}
}

func TestComponentsSingleAndEmpty(t *testing.T) {
	t.Parallel()
	l := NewLabeller(4)
	labels, count := l.Components([]grid.Point{pt(0, 0)}, 5)
	if count != 1 || labels[0] != 0 {
		t.Errorf("single agent: labels=%v count=%d", labels, count)
	}
	labels, count = l.Components(nil, 3)
	if count != 0 || len(labels) != 0 {
		t.Errorf("empty: labels=%v count=%d", labels, count)
	}
}

func TestLabellerRegrows(t *testing.T) {
	t.Parallel()
	l := NewLabeller(2)
	pos := make([]grid.Point, 50)
	for i := range pos {
		pos[i] = grid.Point{X: int32(i), Y: 0}
	}
	labels, count := l.Components(pos, 1)
	if count != 1 {
		t.Fatalf("regrown labeller: count=%d, want 1", count)
	}
	if len(labels) != 50 {
		t.Fatalf("labels length %d", len(labels))
	}
}

func TestLabelsDeterministicOrder(t *testing.T) {
	t.Parallel()
	pos := []grid.Point{pt(9, 9), pt(0, 0), pt(9, 9), pt(1, 0)}
	l := NewLabeller(len(pos))
	labels, _ := l.Components(pos, 1)
	// First appearance order: agent0 gets label 0, agent1 label 1, agent2
	// joins agent0, agent3 joins agent1.
	if labels[0] != 0 || labels[1] != 1 || labels[2] != 0 || labels[3] != 1 {
		t.Errorf("labels = %v, want [0 1 0 1]", labels)
	}
}

func TestReusedLabellerMatchesFresh(t *testing.T) {
	t.Parallel()
	src := rng.New(9)
	reused := NewLabeller(30)
	for trial := 0; trial < 30; trial++ {
		k := 1 + src.Intn(30)
		pos := make([]grid.Point, k)
		for i := range pos {
			pos[i] = grid.Point{X: int32(src.Intn(16)), Y: int32(src.Intn(16))}
		}
		r := src.Intn(4)
		fresh := NewLabeller(k)
		gotL, gotC := reused.Components(pos, r)
		gotCopy := make([]int32, len(gotL))
		copy(gotCopy, gotL)
		wantL, wantC := fresh.Components(pos, r)
		if gotC != wantC {
			t.Fatalf("trial %d: reused count %d != fresh %d", trial, gotC, wantC)
		}
		for i := range wantL {
			if gotCopy[i] != wantL[i] {
				t.Fatalf("trial %d: label[%d] %d != %d", trial, i, gotCopy[i], wantL[i])
			}
		}
	}
}

// TestParallelMatchesSequential pins the parallel labelling contract:
// whatever worker count is forced, the returned label slice is bit-for-bit
// identical to the sequential path's, across population sizes that land on
// either side of every strip boundary.
func TestParallelMatchesSequential(t *testing.T) {
	t.Parallel()
	src := rng.New(77)
	seq := NewLabeller(1)
	seq.SetParallelism(1)
	for _, p := range []int{2, 3, 8, 64} {
		par := NewLabeller(1)
		par.SetParallelism(p)
		for trial := 0; trial < 40; trial++ {
			k := 1 + src.Intn(500)
			side := 8 + src.Intn(120)
			pos := make([]grid.Point, k)
			for i := range pos {
				pos[i] = grid.Point{X: int32(src.Intn(side)), Y: int32(src.Intn(side))}
			}
			for _, r := range []int{-1, 0, 1, 3, 9} {
				want, wantC := seq.Components(pos, r)
				wantCopy := append([]int32(nil), want...)
				got, gotC := par.Components(pos, r)
				if gotC != wantC {
					t.Fatalf("p=%d trial=%d r=%d: count %d != sequential %d", p, trial, r, gotC, wantC)
				}
				for i := range wantCopy {
					if got[i] != wantCopy[i] {
						t.Fatalf("p=%d trial=%d r=%d: label[%d] = %d, sequential %d",
							p, trial, r, i, got[i], wantCopy[i])
					}
				}
			}
		}
	}
}

// TestSetParallelismNeverChangesResults drives one labeller through
// alternating parallelism settings mid-life, the way a reused engine
// labeller would see them, and checks against brute force throughout.
func TestSetParallelismNeverChangesResults(t *testing.T) {
	t.Parallel()
	src := rng.New(31)
	l := NewLabeller(64)
	for trial := 0; trial < 30; trial++ {
		l.SetParallelism(trial % 5) // cycles auto, 1, 2, 3, 4
		k := 2 + src.Intn(64)
		pos := make([]grid.Point, k)
		for i := range pos {
			pos[i] = grid.Point{X: int32(src.Intn(40)), Y: int32(src.Intn(40))}
		}
		r := src.Intn(6)
		labels, count := l.Components(pos, r)
		want, wantCount := bruteComponents(pos, r)
		if count != wantCount || !sameGrouping(labels, want) {
			t.Fatalf("trial %d (par=%d) r=%d: mismatch vs brute force", trial, trial%5, r)
		}
	}
}

// TestComponentsSteadyStateAllocs pins the zero-allocation guarantee the
// package doc makes for the sequential hot path — and with it the fix for
// the old bucket pool's unbounded retention: the CSR index owns exactly one
// order slice and one offset slice, both sized O(k), so a one-off dense
// step can no longer pin memory beyond that.
func TestComponentsSteadyStateAllocs(t *testing.T) {
	src := rng.New(12)
	const k = 2048
	pos := make([]grid.Point, k)
	for i := range pos {
		pos[i] = grid.Point{X: int32(src.Intn(256)), Y: int32(src.Intn(256))}
	}
	l := NewLabeller(k)
	l.Components(pos, 8) // warm up: first call may size the offset array
	for _, r := range []int{0, 1, 8} {
		allocs := testing.AllocsPerRun(20, func() {
			l.Components(pos, r)
		})
		if allocs != 0 {
			t.Errorf("r=%d: %v allocs per steady-state Components call, want 0", r, allocs)
		}
	}

	// The incremental kernel carries the same pledge, on both of its
	// steady-state paths: repeated calls with unchanged positions (empty
	// moved set, cached labels) and stepped positions under the lazy walk
	// (cell surgery plus frontier recheck, with periodic in-capacity
	// rescans as the drift budget runs out).
	for _, r := range []int{0, 1, 8} {
		inc := NewIncremental(k)
		inc.Components(pos, r)
		allocs := testing.AllocsPerRun(20, func() {
			inc.Components(pos, r)
		})
		if allocs != 0 {
			t.Errorf("r=%d: %v allocs per static incremental call, want 0", r, allocs)
		}
	}
	g := grid.MustNew(256)
	walkSrc := rng.New(77)
	buf := make([]uint64, 0, k)
	stepped := NewIncremental(k)
	for warm := 0; warm < 32; warm++ {
		// Warm past the pair-cache high-water mark so measured rescans
		// reuse capacity.
		walk.StepAll(g, pos, buf, walkSrc)
		stepped.Components(pos, 8)
	}
	allocs := testing.AllocsPerRun(20, func() {
		walk.StepAll(g, pos, buf, walkSrc)
		stepped.Components(pos, 8)
	})
	if allocs != 0 {
		t.Errorf("%v allocs per stepped incremental call, want 0", allocs)
	}

	// So does the all-pairs regime at a fleet-sized population, for
	// Components and for Flood, whose full sweep runs every call.
	small := pos[:16]
	allPairs := NewIncremental(len(small))
	informed := bitset.New(len(small))
	informed.Add(0)
	newly := make([]int32, 0, len(small))
	for _, r := range []int{0, 1, 8} {
		allocs := testing.AllocsPerRun(20, func() {
			walk.StepAll(g, small, buf, walkSrc)
			allPairs.Components(small, r)
		})
		if allocs != 0 {
			t.Errorf("r=%d: %v allocs per all-pairs Components call, want 0", r, allocs)
		}
		allocs = testing.AllocsPerRun(20, func() {
			walk.StepAll(g, small, buf, walkSrc)
			newly = allPairs.Flood(small, r, informed, newly[:0])
		})
		if allocs != 0 {
			t.Errorf("r=%d: %v allocs per all-pairs Flood call, want 0", r, allocs)
		}
	}
}

// TestComponentsCoarsenedCells forces the cell-coarsening path: positions
// spread over a span vastly larger than the population would normally
// occupy, so the bucket grid must cap its resolution and fall back to
// coarser cells without losing pairs (including the r=0 equality groups).
func TestComponentsCoarsenedCells(t *testing.T) {
	t.Parallel()
	src := rng.New(8)
	l := NewLabeller(64)
	for trial := 0; trial < 20; trial++ {
		k := 2 + src.Intn(48)
		pos := make([]grid.Point, k)
		for i := range pos {
			// Half the agents cluster near the origin, half scatter across
			// a ~100k-wide span; duplicates for the r=0 groups.
			switch src.Intn(3) {
			case 0:
				pos[i] = grid.Point{X: int32(src.Intn(6)), Y: int32(src.Intn(6))}
			case 1:
				pos[i] = grid.Point{X: int32(src.Intn(100000)), Y: int32(src.Intn(100000))}
			default:
				pos[i] = pos[src.Intn(i+1)]
			}
		}
		for _, r := range []int{0, 2, 7} {
			labels, count := l.Components(pos, r)
			want, wantCount := bruteComponents(pos, r)
			if count != wantCount || !sameGrouping(labels, want) {
				t.Fatalf("trial %d r=%d: coarsened grid mismatch vs brute force", trial, r)
			}
		}
	}
}

func TestFloorRadius(t *testing.T) {
	t.Parallel()
	cases := []struct {
		in   float64
		want int
	}{
		{0, 0}, {0.9, 0}, {1, 1}, {2.7, 2}, {15.999, 15}, {-0.5, -1},
	}
	for _, tc := range cases {
		if got := FloorRadius(tc.in); got != tc.want {
			t.Errorf("FloorRadius(%v) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestSizesAndMaxSize(t *testing.T) {
	t.Parallel()
	labels := []int32{0, 1, 0, 2, 0, 1}
	sizes := Sizes(labels, 3, nil)
	if len(sizes) != 3 || sizes[0] != 3 || sizes[1] != 2 || sizes[2] != 1 {
		t.Errorf("Sizes = %v", sizes)
	}
	if got := MaxSize(labels, 3); got != 3 {
		t.Errorf("MaxSize = %d, want 3", got)
	}
	if got := MaxSize(nil, 0); got != 0 {
		t.Errorf("MaxSize(empty) = %d", got)
	}
	// Buffer reuse path.
	buf := make([]int32, 0, 8)
	sizes2 := Sizes(labels, 3, buf)
	if len(sizes2) != 3 || sizes2[0] != 3 {
		t.Errorf("Sizes with buffer = %v", sizes2)
	}
}

// Property: labelling agrees with brute force on random configurations.
func TestQuickComponentsCorrect(t *testing.T) {
	t.Parallel()
	l := NewLabeller(16)
	f := func(raw []uint16, rRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 16 {
			raw = raw[:16]
		}
		pos := make([]grid.Point, len(raw))
		for i, v := range raw {
			pos[i] = grid.Point{X: int32(v % 24), Y: int32((v >> 8) % 24)}
		}
		r := int(rRaw % 8)
		labels, count := l.Components(pos, r)
		want, wantCount := bruteComponents(pos, r)
		return count == wantCount && sameGrouping(labels, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkComponentsSparse(b *testing.B) {
	src := rng.New(1)
	const k = 256
	pos := make([]grid.Point, k)
	for i := range pos {
		pos[i] = grid.Point{X: int32(src.Intn(128)), Y: int32(src.Intn(128))}
	}
	l := NewLabeller(k)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Components(pos, 8) // r near percolation for n=16384, k=256
	}
}

func BenchmarkComponentsR0(b *testing.B) {
	src := rng.New(1)
	const k = 256
	pos := make([]grid.Point, k)
	for i := range pos {
		pos[i] = grid.Point{X: int32(src.Intn(128)), Y: int32(src.Intn(128))}
	}
	l := NewLabeller(k)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Components(pos, 0)
	}
}
