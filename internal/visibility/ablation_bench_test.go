package visibility

// Ablation benchmarks for the component-labelling design choices called out
// in DESIGN.md. Three generations of the labeller are compared: the O(k²)
// all-pairs brute force, the flat CSR bucket index that rebuilds from
// scratch every call, and the incremental labeller that maintains the index
// across steps — plus, at small populations, the production selection,
// which checks every pair up to allPairsK agents. (The map-backed spatial
// hash between brute force and the CSR index is retired; its figures stay
// in BENCH_visibility.json.) Correctness equivalence is established by
// TestAblationBaselinesAgree, the differential harness in
// differential_test.go, and the brute-force comparison tests in
// visibility_test.go; these benchmarks quantify the gaps at sparse-regime
// densities. BENCH_visibility.json records the measured trajectory.

import (
	"fmt"
	"math"
	"testing"

	"mobilenet/internal/grid"
	"mobilenet/internal/rng"
	"mobilenet/internal/unionfind"
	"mobilenet/internal/walk"
)

// bruteLabeller is the all-pairs baseline: check every agent pair.
type bruteLabeller struct {
	dsu    *unionfind.DSU
	labels []int32
}

func newBruteLabeller(k int) *bruteLabeller {
	return &bruteLabeller{dsu: unionfind.New(k), labels: make([]int32, k)}
}

func (b *bruteLabeller) components(pos []grid.Point, r int) ([]int32, int) {
	k := len(pos)
	b.dsu.Reset()
	if r >= 0 {
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				if grid.ManhattanPoints(pos[i], pos[j]) <= r {
					b.dsu.Union(i, j)
				}
			}
		}
	}
	return b.labels[:k], b.dsu.Labels(b.labels[:k])
}

// benchPositions places k agents uniformly on a side x side box, the
// sparse-regime density all ablation points share (k/n = 1/64, the regime
// where T_B = Θ̃(n/√k) is the binding bound).
func benchPositions(k, side int) []grid.Point {
	src := rng.New(99)
	pos := make([]grid.Point, k)
	for i := range pos {
		pos[i] = grid.Point{X: int32(src.Intn(side)), Y: int32(src.Intn(side))}
	}
	return pos
}

// benchSide keeps the density fixed as k scales: side = 8√k gives
// n = 64k nodes, matching the historical k=1024/side=256 ablation point.
func benchSide(k int) int {
	return int(8 * math.Sqrt(float64(k)))
}

const benchRadius = 8

// BenchmarkComponents is the labeller ablation grid: implementation x
// population size at fixed sparse density. "csr" is the flat CSR index
// (sequential), "csrpar" the CSR index with the parallel union phase forced
// to 4 workers (on a single-core host it measures shard overhead; on
// multicore hardware, speedup).
func BenchmarkComponents(b *testing.B) {
	for _, k := range []int{1000, 10000, 100000, 1000000} {
		pos := benchPositions(k, benchSide(k))

		b.Run(fmt.Sprintf("impl=csr/k=%d", k), func(b *testing.B) {
			l := NewLabeller(k)
			l.SetParallelism(1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.Components(pos, benchRadius)
			}
		})
		b.Run(fmt.Sprintf("impl=csrpar/k=%d", k), func(b *testing.B) {
			l := NewLabeller(k)
			l.SetParallelism(4)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.Components(pos, benchRadius)
			}
		})
	}
}

// BenchmarkComponentsStepped is the incremental-kernel ablation: each op
// advances every agent one lazy-walk step and then relabels — the exact
// shape of an engine step loop. The rebuild generation (csr) pays its full
// per-call cost no matter how little moved; the incremental kernel (inc
// sequential, incpar with the recheck fanned to 4 workers) pays only for
// dirty cells plus the frontier recheck of the cached pair set. The gap
// here — not the static BenchmarkComponents figures, which an incremental
// labeller would short-circuit through its clean-labels path — is the
// design's operating speedup. Every row includes the walk.StepAll cost, so
// the inc rows understate the pure relabel gain.
//
// Two radii are swept: r=1 is the operating regime of the standing phase
// baseline (BENCH_phases.json runs broadcast at r=1), where the pair cache
// is small and most steps flip nothing; r=benchRadius (8) is the saturated
// worst case where ~every cached pair has a moved endpoint every step and
// the pass set is rebuilt wholesale.
//
// The service's populations (k = 16 and 32) run at r=0 and r=1 instead,
// where "sel" is the production selection — the all-pairs regime at these
// sizes — against csr and the kernel it replaces there.
func BenchmarkComponentsStepped(b *testing.B) {
	for _, k := range []int{16, 32, 1000, 10000, 100000, 1000000} {
		side := benchSide(k)
		g := grid.MustNew(side)
		type impl struct {
			name string
			mk   func(r int) (func(pos []grid.Point), *Incremental)
		}
		// steponly times walk.StepAll with no relabel at all: the motion
		// floor every other row includes. Subtracting it from a labelled
		// row gives that labeller's net per-step cost, which is what the
		// ≥2x acceptance ratio against the static csr record is computed
		// from (see BENCH_visibility.json notes).
		impls := []impl{
			{"steponly", func(r int) (func([]grid.Point), *Incremental) {
				return func(pos []grid.Point) {}, nil
			}},
			{"csr", func(r int) (func([]grid.Point), *Incremental) {
				l := NewLabeller(k)
				l.SetParallelism(1)
				return func(pos []grid.Point) { l.Components(pos, r) }, nil
			}},
			{"inc", func(r int) (func([]grid.Point), *Incremental) {
				l := NewIncremental(k)
				l.SetParallelism(1)
				l.kernelOnly = true
				return func(pos []grid.Point) { l.Components(pos, r) }, l
			}},
		}
		radii := []int{1, benchRadius}
		if k <= allPairsK {
			radii = []int{0, 1}
			impls = append(impls, impl{"sel", func(r int) (func([]grid.Point), *Incremental) {
				l := NewIncremental(k)
				l.SetParallelism(1)
				return func(pos []grid.Point) { l.Components(pos, r) }, nil
			}})
		} else {
			impls = append(impls, impl{"incpar", func(r int) (func([]grid.Point), *Incremental) {
				l := NewIncremental(k)
				l.SetParallelism(4)
				return func(pos []grid.Point) { l.Components(pos, r) }, l
			}})
		}
		for _, r := range radii {
			for _, im := range impls {
				b.Run(fmt.Sprintf("impl=%s/k=%d/r=%d", im.name, k, r), func(b *testing.B) {
					pos := benchPositions(k, side)
					buf := make([]uint64, 0, k)
					src := rng.New(2024)
					relabel, probe := im.mk(r)
					// Warm-up establishes the incremental pair cache's
					// high-water mark so steady state is what gets timed.
					for w := 0; w < 8; w++ {
						walk.StepAll(g, pos, buf, src)
						relabel(pos)
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						walk.StepAll(g, pos, buf, src)
						relabel(pos)
					}
					if probe != nil {
						// Frontier occupancy of the final timed step: the
						// fraction of agents that moved and of cached pairs
						// with a moved endpoint. These are the figures the
						// DESIGN.md §14 "no pair-walk index" decision rests
						// on — the lazy walk moves half the agents per step,
						// so ~3/4 of cached pairs are on the frontier and a
						// moved-pair index could skip only the last quarter.
						b.ReportMetric(float64(len(probe.movedList))/float64(k), "moved-frac")
						b.ReportMetric(movedPairFraction(probe), "moved-pair-frac")
					}
				})
			}
		}
	}
}

// movedPairFraction reports the fraction of the incremental labeller's
// cached candidate pairs with at least one endpoint in the last step's
// moved set — the share of the pair slab a moved-endpoint-only walk index
// would still have to visit.
func movedPairFraction(x *Incremental) float64 {
	n := len(x.pairs) / 2
	if n == 0 {
		return 0
	}
	mask := make([]uint64, (x.k+63)/64)
	for _, i := range x.movedList {
		mask[i>>6] |= 1 << (uint(i) & 63)
	}
	moved := 0
	for pi := 0; pi < n; pi++ {
		a, b := x.pairs[2*pi], x.pairs[2*pi+1]
		if mask[a>>6]&(1<<(uint(a)&63)) != 0 || mask[b>>6]&(1<<(uint(b)&63)) != 0 {
			moved++
		}
	}
	return float64(moved) / float64(n)
}

// BenchmarkAblationBruteForceK1024 keeps the all-pairs baseline in the
// record; it is too slow to sweep past k=1024.
func BenchmarkAblationBruteForceK1024(b *testing.B) {
	pos := benchPositions(1024, 256)
	l := newBruteLabeller(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.components(pos, benchRadius)
	}
}

// TestAblationBaselinesAgree pins all four implementations to each other at
// bench parameters: identical labels, not just partitions. Every
// implementation assigns labels by first appearance in agent-index order —
// a function of the partition alone — so label slices must match exactly
// however the unions were ordered. (The radius sweep forces the incremental
// labeller to rebuild each round; its stepped dirty-cell path is pinned by
// the differential harness in differential_test.go.)
func TestAblationBaselinesAgree(t *testing.T) {
	t.Parallel()
	pos := benchPositions(256, 128)
	csr := NewLabeller(256)
	csr.SetParallelism(1)
	par := NewLabeller(256)
	par.SetParallelism(3)
	inc := NewIncremental(256)
	inc.SetParallelism(1)
	slow := newBruteLabeller(256)
	for _, r := range []int{0, 4, 8, 16} {
		cl, cc := csr.Components(pos, r)
		clCopy := append([]int32(nil), cl...)
		pl, pc := par.Components(pos, r)
		plCopy := append([]int32(nil), pl...)
		il, ic := inc.Components(pos, r)
		ilCopy := append([]int32(nil), il...)
		sl, sc := slow.components(pos, r)
		if cc != pc || pc != ic || ic != sc {
			t.Fatalf("r=%d: counts differ csr=%d par=%d inc=%d brute=%d", r, cc, pc, ic, sc)
		}
		for i := range clCopy {
			if clCopy[i] != plCopy[i] || clCopy[i] != ilCopy[i] || clCopy[i] != sl[i] {
				t.Fatalf("r=%d: labels differ at %d: csr=%d par=%d inc=%d brute=%d",
					r, i, clCopy[i], plCopy[i], ilCopy[i], sl[i])
			}
		}
	}
}
