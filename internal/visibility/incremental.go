package visibility

import (
	"math/bits"
	"runtime"
	"sync"

	"mobilenet/internal/bitset"
	"mobilenet/internal/grid"
	"mobilenet/internal/prof"
	"mobilenet/internal/unionfind"
)

// cellSlack is the spare capacity every loose-CSR bucket is laid out with:
// an agent entering a cell takes a spare slot in O(1), and only a bucket
// that outgrows its slack forces a relayout of the slabs.
const cellSlack = 2

// padFor returns the pair-cache padding for radius r and population k:
// candidate pairs are collected out to distance r+pad, and the cache stays
// valid while the cumulative per-step drift keeps every uncached pair's
// separation above r (see Incremental). Larger pads buy longer rescan
// horizons at the price of more cached pairs per agent; the floor keeps
// small radii from rescanning every other step and the cap bounds the
// cache near the B(r+pad) ball growth. Populations matter because the
// frontier recheck streams the whole cache: while it fits in cache memory
// the marginal pair is nearly free and a wider pad (fewer rescans) wins,
// but once the cache spills, every extra candidate costs two DRAM-latency
// position loads per step and the balance tips toward narrow pads with
// more frequent — but sequential and batched — rescans. The value is a
// pure tuning knob either way: results are bit-identical for every pad
// because exact distances decide all edges.
func padFor(r, k int) int {
	p := r
	if p < 4 {
		p = 4
	}
	if k <= 1<<18 && p < 6 {
		p = 6
	}
	if p > 16 {
		p = 16
	}
	return p
}

// allPairsK is the largest population the small-population regime serves:
// at k <= allPairsK, Components and Flood reset the forest and union every
// pair at exact distance <= r, bypassing the bucket index, the padded pair
// cache and the frontier recheck, whose bookkeeping costs more than
// k(k-1)/2 distance checks at this size. The value is a measured crossover
// on profiled broadcast replicates (DESIGN.md §14): all pairs won at k = 32
// at every density and radius tried, was mixed at k = 48–64 and lost at
// every radius from k = 96.
const allPairsK = 32

// Incremental is a drop-in component labeller that maintains its spatial
// index and candidate-pair structure across steps instead of rebuilding
// them from scratch: under bounded per-step motion (the paper's lazy walk
// moves an agent at most one lattice step per tick) almost all bucket
// contents and almost all pair distances are unchanged between steps, and
// the from-scratch rebuild is the dominant cost of every engine step (see
// BENCH_phases.json).
//
// Three mechanisms carry the savings:
//
//   - Dirty-cell index maintenance: agents are bucketed into a loose CSR —
//     order/starts slabs with per-cell slack — and a step only touches the
//     buckets of agents whose cell actually changed (an O(1) swap-remove
//     plus slot insert each). Bucket member order becomes arbitrary, which
//     is safe because labels are a pure function of the partition (see
//     Components).
//
//   - A padded candidate-pair cache with a drift certificate: at a rescan,
//     every pair within distance r+pad is recorded once with a pass bit
//     (distance <= r). A pair farther than r+pad can close its gap by at
//     most twice the per-step maximum displacement per step, so while the
//     cumulative closure stays within pad, no uncached pair can become an
//     edge and the per-step work is a flat recheck of cached pairs only.
//     Teleports (trace loop wraps, test churn) blow the budget and force a
//     rescan automatically.
//
//   - Frontier relabelling: a pair with both endpoints unmoved this step
//     keeps its cached pass bit without a distance check, so per-step exact
//     distance work is confined to the frontier — pairs incident to a moved
//     agent. When no pass bit flips, the partition is provably unchanged
//     and the cached labels are returned wholesale, skipping the label
//     pass; the spread fast path (Flood) similarly returns nothing.
//
// Populations of at most allPairsK agents skip all three: each call checks
// every pair afresh, which at that size is cheaper than keeping the index.
//
// Results are bit-for-bit identical to Labeller: every edge decision is an
// exact distance comparison, and the dense label pass assigns labels by
// first appearance in agent index order — a function of the partition
// alone — so index layout, pair order and rescan cadence cannot influence
// the output. The differential and fuzz tests in this package pin that
// equivalence; SetFullRebuild routes calls through a retained from-scratch
// Labeller for those tests and for ablations.
//
// An Incremental is reusable across steps but not safe for concurrent use.
// The zero value is not usable; construct with NewIncremental.
type Incremental struct {
	full     *Labeller
	fullMode bool

	// kernelOnly keeps populations of at most allPairsK agents on the
	// incremental kernel instead of the all-pairs regime, so in-package
	// tests can drive the kernel at small k.
	kernelOnly bool

	k     int
	r     int
	valid bool // incremental state matches prevPos under (k, r)

	// Window geometry: cells are 1<<shift on a side (always a power of two
	// so bucket indexing is shift/mask work, never division), the bucket
	// grid is gw x gh cells, and the window origin is (minX, minY). An
	// agent leaving the window forces a full re-anchor.
	shift      uint
	gw, gh     int
	minX, minY int32

	// Loose CSR: bucket c owns slots [csrStarts[c], csrStarts[c+1]) of
	// csrOrder, of which the first csrCount[c] are live; slotOf[i] is agent
	// i's slot and cellOf[i] its bucket. csrStale marks the layout lazily
	// dirty: once a bucket overflows its slack, per-step surgery stops
	// (cellOf alone keeps tracking geometry) and the slabs are relaid in one
	// pass at the next rescan — the only consumer of the layout — instead of
	// immediately. scanPos mirrors csrOrder with each live slot's position,
	// gathered once per rescan so the stencil scan reads positions
	// sequentially instead of chasing agent ids through pos.
	csrStarts []int32
	csrCount  []int32
	csrOrder  []int32
	cellOf    []int32
	slotOf    []int32
	csrStale  bool
	scanPos   []grid.Point

	// Pair cache: flat (a, b) candidate pairs within r+pad at the last
	// rescan, with one pass bit each (distance <= r as of prevPos). remain
	// is the drift budget left before the certificate expires.
	pad       int
	remain    int
	pairs     []int32
	passBits  []uint64
	pairsHigh int // candidate high-water mark for headroom growth

	prevPos   []grid.Point
	movedList []int32
	movedMask []uint64

	dsu       *unionfind.DSU
	labels    []int32
	rootLabel []int32
	count     int

	labelsClean bool // labels/count match the current partition
	floodClean  bool // partition unchanged since the last Flood

	// flipOn lists the pairs whose pass bit flipped on during the last
	// recheck; sweepAll marks steps (rescans, re-anchors) whose fresh pair
	// enumeration records no flips. Components can only merge along
	// flipped-on edges, which is what lets Flood skip its whole-population
	// sweep when none of them reaches an informed component.
	flipOn   []int32
	sweepAll bool

	// lastInformed guards the Flood fast path: skipping is only sound when
	// the same informed set comes back unchanged (it only ever grows, and
	// only through Flood, in engine use).
	lastInformed    *bitset.Set
	lastInformedLen int

	rootMark     []uint64 // flood scratch: marked DSU roots
	compInformed []bool   // FloodWithLabels scratch

	par       int
	prof      *prof.StepProfile
	shards    [][]int32  // per-worker pair buffers for the parallel rescan
	shardBits [][]uint64 // per-worker pass-bit buffers, bit i = shard pair i
	shardNP   []int      // per-worker pair counts for bit concatenation
}

// NewIncremental returns an incremental labeller sized for populations of k
// agents. It transparently reinitialises if later called with a different
// population size or radius.
func NewIncremental(k int) *Incremental {
	x := &Incremental{full: NewLabeller(k), r: -2}
	x.ensureK(k)
	return x
}

// SetParallelism configures the worker count of the rescan and of the
// retained full-rebuild path, with Labeller.SetParallelism semantics:
// 0 automatic, 1 sequential, p > 1 up to p workers. Results are bit-for-bit
// identical at every setting.
func (x *Incremental) SetParallelism(p int) {
	if p < 0 {
		p = 0
	}
	x.par = p
	x.full.SetParallelism(p)
}

// SetProfile attaches a step-phase profiler. The incremental path stays
// inside the fixed phase vocabulary: move application, cell surgery and
// slab relayouts lap into prof.Index; pair rescans, frontier rechecks,
// unions and the label pass lap into prof.Label; Flood work lands in the
// caller's spread lap. The all-pairs regime laps prof.Label only. A nil
// profile keeps every lap a branch.
func (x *Incremental) SetProfile(p *prof.StepProfile) {
	x.prof = p
	x.full.SetProfile(p)
}

// SetFullRebuild routes all subsequent calls through the retained
// from-scratch Labeller (true) or the incremental kernel (false, the
// default). Outputs are bit-for-bit identical either way — the flag exists
// so differential tests and ablation benches can hold the reference and
// the kernel side by side on one type.
func (x *Incremental) SetFullRebuild(on bool) {
	if on && !x.fullMode {
		// Returning to incremental mode later must not trust state that
		// stopped tracking positions while the full path served calls.
		x.valid = false
	}
	x.fullMode = on
}

func (x *Incremental) ensureK(k int) {
	if len(x.prevPos) >= k {
		return
	}
	x.prevPos = make([]grid.Point, k)
	x.cellOf = make([]int32, k)
	x.slotOf = make([]int32, k)
	x.movedList = make([]int32, 0, k)
	x.movedMask = make([]uint64, (k+63)/64)
	x.labels = make([]int32, k)
	x.rootLabel = make([]int32, k)
	x.rootMark = make([]uint64, (k+63)/64)
	x.dsu = unionfind.New(k)
	x.valid = false
}

// workers resolves the rescan worker count for the current bucket grid,
// with the Labeller's policy: sequential below autoParallelK agents unless
// parallelism was requested explicitly.
func (x *Incremental) workers() int {
	p := x.par
	if p == 0 {
		if x.k < autoParallelK {
			return 1
		}
		p = runtime.GOMAXPROCS(0)
	}
	if p > maxShards {
		p = maxShards
	}
	if p > x.gh {
		p = x.gh
	}
	if p < 1 {
		p = 1
	}
	return p
}

// Components labels the connected components of G(r) over the given agent
// positions, exactly like Labeller.Components: a dense label per agent in
// first-appearance order plus the component count, identical at every
// parallelism setting. The returned slice is owned by the Incremental and
// valid until the next call.
//
// Positions may change arbitrarily between calls — the kernel derives the
// moved set itself by comparing against its retained previous positions,
// so callers never report motion and cannot misreport it. Bounded motion
// is a performance regime, not a correctness requirement. Populations of
// at most allPairsK agents are labelled from every pair instead, with one
// label lap and no index lap.
func (x *Incremental) Components(pos []grid.Point, r int) (labels []int32, count int) {
	if x.fullMode {
		return x.full.Components(pos, r)
	}
	k := len(pos)
	if k == 0 {
		return x.labels[:0], 0
	}
	x.ensureK(k)
	if r < 0 || k == 1 {
		// Trivial regimes bypass the incremental machinery entirely (and
		// invalidate it: it no longer tracks positions).
		x.valid = false
		out := x.labels[:k]
		for i := range out {
			out[i] = int32(i)
		}
		x.prof.Lap(prof.Label)
		return out, k
	}
	if x.allPairs(k) {
		x.unionAllPairs(pos, r)
		count = x.dsu.DenseLabels(x.labels[:k], x.rootLabel[:k])
		x.prof.Lap(prof.Label)
		return x.labels[:k], count
	}
	x.step(pos, r)
	if !x.labelsClean {
		x.labelPass()
	}
	x.prof.Lap(prof.Label)
	return x.labels[:x.k], x.count
}

// Flood spreads an informed set through the current components: after
// advancing the kernel to pos, every uninformed agent sharing a component
// with an informed one is added to informed, its index appended to newly
// (ascending), and the extended slice returned. The spread works directly
// on union-find roots — component labels are never materialised — and when
// the partition and the informed set are both unchanged since the last
// Flood, it returns immediately. Populations of at most allPairsK agents
// union every pair afresh and always take the full sweep.
//
// Equivalent by construction to labelling plus a component flood (which is
// exactly what it does in full-rebuild mode, via FloodWithLabels); the
// differential harness pins the equivalence.
func (x *Incremental) Flood(pos []grid.Point, r int, informed *bitset.Set, newly []int32) []int32 {
	if x.fullMode {
		labels, count := x.full.Components(pos, r)
		return x.FloodWithLabels(labels, count, informed, newly)
	}
	k := len(pos)
	if k == 0 {
		return newly
	}
	x.ensureK(k)
	if r < 0 || k == 1 {
		// Singleton components spread nothing.
		x.valid = false
		x.prof.Lap(prof.Label)
		return newly
	}
	if x.allPairs(k) {
		x.unionAllPairs(pos, r)
	} else {
		x.step(pos, r)
	}
	x.prof.Lap(prof.Label)
	if x.floodClean && informed == x.lastInformed && informed.Len() == x.lastInformedLen {
		return newly
	}
	// Mark the roots of informed agents, then sweep uninformed agents whose
	// root is marked. Both passes iterate the informed set's bit words
	// directly — set bits for the mark, cleared bits for the sweep — instead
	// of testing membership agent by agent, and neither needs a prior
	// CompressAll: the recheck's pair replay splices chains as it unions
	// (Rem's algorithm), so every Find walk is a step or two.
	numWords := (k + 63) / 64
	mark := x.rootMark[:numWords]
	clear(mark)
	d := x.dsu
	words := informed.Words()
	for wi := 0; wi < len(words) && wi < numWords; wi++ {
		for w := words[wi]; w != 0; w &= w - 1 {
			j := wi<<6 + bits.TrailingZeros64(w)
			if j >= k {
				break
			}
			root := d.Find(j)
			mark[root>>6] |= 1 << (uint(root) & 63)
		}
	}
	// A recheck step can only merge components along edges whose pass bit
	// flipped on, and the previous flood left every informed component
	// fully informed, so if no flipped-on edge landed in a marked component
	// the sweep cannot find anyone to inform and is skipped wholesale.
	// Rescans and re-anchors re-enumerate pairs without recording flips
	// (sweepAll), and an informed set edited outside Flood voids the
	// saturation invariant, so both force the sweep.
	if !x.sweepAll && informed == x.lastInformed && informed.Len() == x.lastInformedLen {
		spread := false
		for i := 0; i+1 < len(x.flipOn); i += 2 {
			// Post-union both endpoints share a root; one lookup decides.
			root := d.Find(int(x.flipOn[i]))
			if mark[root>>6]&(1<<(uint(root)&63)) != 0 {
				spread = true
				break
			}
		}
		if !spread {
			x.floodClean = true
			return newly
		}
	}
	for wi := 0; wi < numWords; wi++ {
		var iw uint64
		if wi < len(words) {
			iw = words[wi]
		}
		for w := ^iw; w != 0; w &= w - 1 {
			j := wi<<6 + bits.TrailingZeros64(w)
			if j >= k {
				break
			}
			root := d.Find(j)
			if mark[root>>6]&(1<<(uint(root)&63)) != 0 {
				informed.Add(j)
				newly = append(newly, int32(j))
			}
		}
	}
	x.floodClean = true
	x.lastInformed = informed
	x.lastInformedLen = informed.Len()
	return newly
}

// allPairs reports whether a population of k agents takes the all-pairs
// regime rather than the incremental kernel.
func (x *Incremental) allPairs(k int) bool {
	return k <= allPairsK && !x.kernelOnly
}

// unionAllPairs resets the forest and unions every pair of agents at exact
// distance <= r. The kernel state stops tracking positions, so it is marked
// invalid, and Flood's fast paths are disarmed: no flips were recorded, so
// Flood runs its full sweep.
func (x *Incremental) unionAllPairs(pos []grid.Point, r int) {
	x.valid = false
	x.floodClean = false
	x.sweepAll = true
	d := x.dsu
	d.Reset()
	for i := 1; i < len(pos); i++ {
		pi := pos[i]
		for j, pj := range pos[:i] {
			if grid.ManhattanPoints(pi, pj) <= r {
				d.Union(i, j)
			}
		}
	}
}

// FloodWithLabels spreads an informed set through an existing labelling
// without advancing the kernel: uninformed agents whose label matches an
// informed agent's are added to informed and appended to newly (ascending).
// It is the pure flood primitive engines use on steps where they computed
// labels anyway for component observables.
func (x *Incremental) FloodWithLabels(labels []int32, count int, informed *bitset.Set, newly []int32) []int32 {
	if count == 0 {
		return newly
	}
	if cap(x.compInformed) < count {
		x.compInformed = make([]bool, count)
	}
	ci := x.compInformed[:count]
	for i := range ci {
		ci[i] = false
	}
	for i := range labels {
		if informed.Contains(i) {
			ci[labels[i]] = true
		}
	}
	for i, lb := range labels {
		if ci[lb] && !informed.Contains(i) {
			informed.Add(i)
			newly = append(newly, int32(i))
		}
	}
	return newly
}

// step advances the incremental state to pos: applies moves to the loose
// CSR, spends drift budget, and re-establishes the partition in the DSU
// via rescan or frontier recheck. Callers have already excluded the
// trivial regimes (k < 2, r < 0). step is idempotent: a second call with
// unchanged positions finds an empty moved set and returns immediately,
// which is what makes Components-then-Flood on one step cost one pass.
func (x *Incremental) step(pos []grid.Point, r int) {
	k := len(pos)
	if !x.valid || k != x.k || r != x.r {
		x.rebuildAll(pos, r)
		return
	}

	moved := x.movedList[:0]
	maxDisp := 0
	outOfWindow := false
	prev := x.prevPos
	loX, loY := x.minX, x.minY
	hiX := clampWindowHi(loX, x.gw, x.shift)
	hiY := clampWindowHi(loY, x.gh, x.shift)
	for i := range pos {
		p := pos[i]
		if p == prev[i] {
			continue
		}
		// Displacement must use the exact 64-bit metric: int32 arithmetic
		// would wrap on extreme teleports, understate maxDisp, and let the
		// drift certificate survive a step it cannot cover.
		d := grid.ManhattanPoints(p, prev[i])
		if d > maxDisp {
			maxDisp = d
		}
		// The moved list only feeds recheck's frontier mask, which switches
		// itself off at half the population; once past that threshold the
		// list's contents are never read, so stop paying for them. (The
		// capped length still reads as "mask off" downstream.)
		if 2*len(moved) < k {
			moved = append(moved, int32(i))
		}
		prev[i] = p
		if p.X < loX || p.X >= hiX || p.Y < loY || p.Y >= hiY {
			outOfWindow = true
			continue
		}
		c := int32(uint32(p.Y-loY)>>x.shift)*int32(x.gw) + int32(uint32(p.X-loX)>>x.shift)
		if c != x.cellOf[i] {
			// O(1) cell surgery keeps the layout live until the first
			// overflow of the step; after that the layout is stale anyway,
			// so further surgery would be wasted — cellOf alone tracks the
			// geometry and the next rescan relays out the slabs wholesale.
			if !outOfWindow && !x.csrStale && !x.moveCell(int32(i), x.cellOf[i], c) {
				x.csrStale = true
			}
			x.cellOf[i] = c
		}
	}
	x.movedList = moved
	if len(moved) == 0 {
		x.prof.Lap(prof.Index)
		return
	}
	if outOfWindow {
		// The window no longer covers the population; re-anchor from
		// scratch. (The wasted cell surgery above is harmless: rebuildAll
		// recomputes cellOf and relays out the slabs.)
		x.rebuildAll(pos, r)
		return
	}
	x.prof.Lap(prof.Index)

	x.remain -= 2 * maxDisp
	var dirty bool
	if x.remain < 0 {
		x.rescan(pos, r)
		dirty = true
	} else {
		dirty = x.recheck(pos, r)
	}
	if dirty {
		x.labelsClean = false
		x.floodClean = false
	}
}

// rebuildAll re-derives everything from the current positions: window
// geometry, loose CSR layout, pair cache and partition.
func (x *Incremental) rebuildAll(pos []grid.Point, r int) {
	k := len(pos)
	x.ensureK(k)
	x.k, x.r = k, r
	x.pad = padFor(r, k)
	copy(x.prevPos[:k], pos)

	minX, minY := pos[0].X, pos[0].Y
	maxX, maxY := minX, minY
	for _, p := range pos[1:] {
		if p.X < minX {
			minX = p.X
		} else if p.X > maxX {
			maxX = p.X
		}
		if p.Y < minY {
			minY = p.Y
		} else if p.Y > maxY {
			maxY = p.Y
		}
	}
	// Cell side: the smallest power of two >= r+pad (powers of two keep
	// bucket indexing divisionless), doubled until the bucket grid passes
	// the same O(k) cell cap as the full path, so slab clearing stays
	// proportional to the population. One margin cell on each side absorbs
	// bounding-box drift without re-anchoring.
	side := r + x.pad
	if side < 1 {
		side = 1
	}
	shift := uint(bits.Len(uint(side - 1)))
	maxCells := 2 * k
	if maxCells < 64 {
		maxCells = 64
	}
	spanX := int64(maxX) - int64(minX)
	spanY := int64(maxY) - int64(minY)
	w := int(spanX>>shift) + 3
	h := int(spanY>>shift) + 3
	for w > maxCells || h > maxCells || w*h > maxCells {
		shift++
		w = int(spanX>>shift) + 3
		h = int(spanY>>shift) + 3
	}
	x.shift, x.gw, x.gh = shift, w, h
	cell := int32(1) << shift
	// Clamp the origin so the margin cell never underflows int32 (grid
	// coordinates are non-negative, but fuzzed positions roam).
	x.minX = clampOriginMargin(minX, cell)
	x.minY = clampOriginMargin(minY, cell)

	cellOf := x.cellOf[:k]
	for i, p := range pos {
		cellOf[i] = int32(uint32(p.Y-x.minY)>>shift)*int32(w) + int32(uint32(p.X-x.minX)>>shift)
	}
	x.relayout()
	x.prof.Lap(prof.Index)
	x.rescan(pos, r)
	x.valid = true
	x.labelsClean = false
	x.floodClean = false
}

// clampOriginMargin returns lo minus one margin cell, saturating so the
// subtraction cannot wrap below the int32 range.
func clampOriginMargin(lo, cell int32) int32 {
	if int64(lo)-int64(cell) < int64(-1<<31) {
		return -1 << 31
	}
	return lo - cell
}

// clampWindowHi returns the window's exclusive high edge lo + cells<<shift,
// saturating at the int32 maximum: positions are int32, so a window whose
// true edge lies beyond it covers every representable coordinate (bar the
// maximum itself, whose spurious re-anchor is correct and rare).
func clampWindowHi(lo int32, cells int, shift uint) int32 {
	hi := int64(lo) + int64(cells)<<shift
	if hi > int64(1<<31-1) {
		return 1<<31 - 1
	}
	return int32(hi)
}

// relayout rebuilds the loose-CSR slabs from cellOf: per-cell capacities
// are the current counts plus cellSlack spare slots, so subsequent cell
// changes go back to O(1) surgery.
func (x *Incremental) relayout() {
	numCells := x.gw * x.gh
	if cap(x.csrCount) < numCells {
		x.csrCount = make([]int32, numCells)
		x.csrStarts = make([]int32, numCells+1)
	}
	counts := x.csrCount[:numCells]
	clear(counts)
	k := x.k
	cellOf := x.cellOf[:k]
	for _, c := range cellOf {
		counts[c]++
	}
	starts := x.csrStarts[:numCells+1]
	slot := int32(0)
	for c := 0; c < numCells; c++ {
		starts[c] = slot
		slot += counts[c] + cellSlack
	}
	starts[numCells] = slot
	if cap(x.csrOrder) < int(slot) {
		x.csrOrder = make([]int32, slot)
		x.scanPos = make([]grid.Point, slot)
	}
	order := x.csrOrder[:slot]
	clear(counts)
	slotOf := x.slotOf[:k]
	for i := 0; i < k; i++ {
		c := cellOf[i]
		s := starts[c] + counts[c]
		order[s] = int32(i)
		slotOf[i] = s
		counts[c]++
	}
	x.csrStale = false
}

// moveCell moves agent i from bucket `from` to bucket `to` in O(1): the
// agent's slot is backfilled with its bucket's last live member, and the
// agent takes the first spare slot of the destination. It reports false
// when the destination bucket is full, which forces a relayout.
func (x *Incremental) moveCell(i, from, to int32) bool {
	starts, counts, order, slotOf := x.csrStarts, x.csrCount, x.csrOrder, x.slotOf
	if counts[to] >= starts[to+1]-starts[to] {
		return false
	}
	last := starts[from] + counts[from] - 1
	s := slotOf[i]
	moved := order[last]
	order[s] = moved
	slotOf[moved] = s
	counts[from]--
	ns := starts[to] + counts[to]
	order[ns] = i
	slotOf[i] = ns
	counts[to]++
	return true
}

// gatherScan copies each live slot's position out of pos into the scanPos
// mirror for bucket rows [rowLo, rowHi). This is the rescan's only
// id-indexed walk over pos: one random load per agent, after which the
// whole stencil scan reads positions in slot order — spatially adjacent
// agents adjacent in memory — instead of re-chasing every agent id for
// every candidate check.
func (x *Incremental) gatherScan(pos []grid.Point, rowLo, rowHi int) {
	w := x.gw
	starts, counts, order, sp := x.csrStarts, x.csrCount, x.csrOrder, x.scanPos
	for c := rowLo * w; c < rowHi*w; c++ {
		s0 := starts[c]
		for s := s0; s < s0+counts[c]; s++ {
			sp[s] = pos[order[s]]
		}
	}
}

// appendCandidates scans bucket rows [rowLo, rowHi) of the loose CSR and
// appends every candidate pair within distance rPad as a flat (a, b) pair,
// recording each pair's pass bit (exact distance <= r) in pass as it goes —
// the one distance computation serves both decisions, so the finalize pass
// never re-touches positions. np is the number of pairs already recorded in
// pass (the bit cursor); positions are read from the scanPos mirror, which
// gatherScan must have filled for these rows. Ownership follows the full
// path's 5-stencil: within-cell pairs plus the four forward neighbour cells
// cover every candidate exactly once, because cells have side >= r+pad.
//
// The neighbour scans are fused inline rather than factored into a helper:
// at operating density a bucket holds only a few agents, so a
// per-neighbour function call (slices in, slices out, for a possibly-empty
// cell) costs more than the distance checks it performs.
func (x *Incremental) appendCandidates(r, rPad, rowLo, rowHi int, out []int32, pass []uint64, np int) ([]int32, []uint64, int) {
	w, h := x.gw, x.gh
	starts, counts, order, sp := x.csrStarts, x.csrCount, x.csrOrder, x.scanPos
	for cy := rowLo; cy < rowHi; cy++ {
		base := cy * w
		for cx := 0; cx < w; cx++ {
			c := base + cx
			n := counts[c]
			if n == 0 {
				continue
			}
			s0 := starts[c]
			bp := sp[s0 : s0+n]
			bo := order[s0 : s0+n]
			for i := 0; i < len(bp); i++ {
				pi := bp[i]
				for j := i + 1; j < len(bp); j++ {
					if d := grid.ManhattanPoints(pi, bp[j]); d <= rPad {
						out = append(out, bo[i], bo[j])
						if np&63 == 0 {
							pass = append(pass, 0)
						}
						if d <= r {
							pass[np>>6] |= 1 << (uint(np) & 63)
						}
						np++
					}
				}
			}
			// East neighbour.
			if cx+1 < w {
				if cn := counts[c+1]; cn > 0 {
					t0 := starts[c+1]
					tp := sp[t0 : t0+cn]
					to := order[t0 : t0+cn]
					for i := 0; i < len(bp); i++ {
						pi := bp[i]
						for j := 0; j < len(tp); j++ {
							if d := grid.ManhattanPoints(pi, tp[j]); d <= rPad {
								out = append(out, bo[i], to[j])
								if np&63 == 0 {
									pass = append(pass, 0)
								}
								if d <= r {
									pass[np>>6] |= 1 << (uint(np) & 63)
								}
								np++
							}
						}
					}
				}
			}
			// Southern row: south-west, south, south-east, clipped at the
			// grid edges.
			if cy+1 < h {
				lo := c + w - 1
				if cx == 0 {
					lo++
				}
				hi := c + w + 1
				if cx+1 >= w {
					hi--
				}
				for nc := lo; nc <= hi; nc++ {
					cn := counts[nc]
					if cn == 0 {
						continue
					}
					t0 := starts[nc]
					tp := sp[t0 : t0+cn]
					to := order[t0 : t0+cn]
					for i := 0; i < len(bp); i++ {
						pi := bp[i]
						for j := 0; j < len(tp); j++ {
							if d := grid.ManhattanPoints(pi, tp[j]); d <= rPad {
								out = append(out, bo[i], to[j])
								if np&63 == 0 {
									pass = append(pass, 0)
								}
								if d <= r {
									pass[np>>6] |= 1 << (uint(np) & 63)
								}
								np++
							}
						}
					}
				}
			}
		}
	}
	return out, pass, np
}

// rescan rebuilds the pair cache from the loose CSR — candidates out to
// r+pad, pass bits at exact distance r — resets the drift budget, and
// re-establishes the partition. A stale layout (deferred bucket overflow)
// is repaired here first: rescans are the layout's only consumer, so one
// relayout per rescan replaces one per overflowing step. The enumeration
// parallelises over bucket row strips exactly like the full path's union
// phase; the finalize pass (union replay of the passing pairs) is
// sequential either way, and the partition is order-independent, so
// parallelism cannot change results.
func (x *Incremental) rescan(pos []grid.Point, r int) {
	if x.csrStale {
		x.relayout()
		x.prof.Lap(prof.Index)
	}
	x.sweepAll = true
	x.remain = x.pad
	rPad := r + x.pad

	// Headroom growth: the cache is reallocated only when a new candidate
	// high-water mark would exceed half the capacity, so steady-state
	// rescans append within capacity and allocate nothing. Pass bits grow
	// by append alongside, retaining their backing across rescans.
	if need := 4 * x.pairsHigh; cap(x.pairs) < need {
		x.pairs = make([]int32, 0, need)
	}
	pairs := x.pairs[:0]
	pass := x.passBits[:0]
	var np int
	if nw := x.workers(); nw > 1 {
		pairs, pass, np = x.scanParallel(pos, r, rPad, nw, pairs, pass)
	} else {
		x.gatherScan(pos, 0, x.gh)
		pairs, pass, np = x.appendCandidates(r, rPad, 0, x.gh, pairs, pass, 0)
	}
	x.pairs = pairs
	x.passBits = pass
	if np > x.pairsHigh {
		x.pairsHigh = np
	}

	d := x.dsu
	d.Reset()
	for w, bw := range pass {
		for bw != 0 {
			pi := w<<6 + bits.TrailingZeros64(bw)
			bw &= bw - 1
			d.Union(int(pairs[2*pi]), int(pairs[2*pi+1]))
		}
	}
}

// scanParallel fans the candidate enumeration across nw bucket-row strips
// balanced by slab size — each worker gathers its own rows' scanPos mirror
// (strip slot ranges are disjoint) and emits pairs plus pass bits into its
// shard — then concatenates the per-strip buffers in strip order.
func (x *Incremental) scanParallel(pos []grid.Point, r, rPad, nw int, out []int32, pass []uint64) ([]int32, []uint64, int) {
	for len(x.shards) < nw {
		x.shards = append(x.shards, make([]int32, 0, 1024))
		x.shardBits = append(x.shardBits, make([]uint64, 0, 16))
	}
	for len(x.shardNP) < nw {
		x.shardNP = append(x.shardNP, 0)
	}
	w, h := x.gw, x.gh
	bounds := make([]int, nw+1)
	bounds[nw] = h
	row := 0
	for s := 1; s < nw; s++ {
		// Slab offsets approximate cumulative agent count well enough for
		// balancing (slack is uniform across cells).
		target := x.csrStarts[x.gw*x.gh] * int32(s) / int32(nw)
		for row < h && x.csrStarts[row*w] < target {
			row++
		}
		bounds[s] = row
	}
	// Gather first, scan second, with a barrier between: a strip's stencil
	// reads its boundary row's southern neighbours, which another strip's
	// gather owns, so the mirror must be complete before any strip scans.
	var wg sync.WaitGroup
	for s := 0; s < nw; s++ {
		rowLo, rowHi := bounds[s], bounds[s+1]
		if rowLo >= rowHi {
			continue
		}
		wg.Add(1)
		go func(rowLo, rowHi int) {
			defer wg.Done()
			x.gatherScan(pos, rowLo, rowHi)
		}(rowLo, rowHi)
	}
	wg.Wait()
	for s := 0; s < nw; s++ {
		rowLo, rowHi := bounds[s], bounds[s+1]
		if rowLo >= rowHi {
			x.shards[s] = x.shards[s][:0]
			x.shardNP[s] = 0
			continue
		}
		wg.Add(1)
		go func(s, rowLo, rowHi int) {
			defer wg.Done()
			x.shards[s], x.shardBits[s], x.shardNP[s] =
				x.appendCandidates(r, rPad, rowLo, rowHi, x.shards[s][:0], x.shardBits[s][:0], 0)
		}(s, rowLo, rowHi)
	}
	wg.Wait()
	np := 0
	for s := 0; s < nw; s++ {
		out = append(out, x.shards[s]...)
		pass = appendBits(pass, np, x.shardBits[s], x.shardNP[s])
		np += x.shardNP[s]
	}
	return out, pass, np
}

// appendBits appends the first srcN bits of src onto dst, which currently
// holds dstN bits, returning the extended slice. Bits of src beyond srcN
// must be zero (the shard emitters only ever set real pair bits), so
// spill-over past the destination's final word is provably empty.
func appendBits(dst []uint64, dstN int, src []uint64, srcN int) []uint64 {
	if srcN == 0 {
		return dst
	}
	need := (dstN + srcN + 63) / 64
	for len(dst) < need {
		dst = append(dst, 0)
	}
	w, off := dstN>>6, uint(dstN&63)
	sw := (srcN + 63) / 64
	if off == 0 {
		copy(dst[w:w+sw], src[:sw])
		return dst
	}
	for i := 0; i < sw; i++ {
		dst[w+i] |= src[i] << off
		if w+i+1 < need {
			dst[w+i+1] = src[i] >> (64 - off)
		}
	}
	return dst
}

// recheck re-derives the pass bit of every cached pair on the frontier —
// pairs with at least one endpoint moved this step — reusing the cached
// bit for fully unmoved pairs, and replays all passing pairs into the
// reset forest. It reports whether any bit flipped (iff the partition may
// have changed). When most agents moved (the lazy walk moves half the
// population every step, putting ~3/4 of cached pairs on the frontier)
// the moved-mask test costs more than the distance checks it saves, so
// the frontier filter turns itself off.
func (x *Incremental) recheck(pos []grid.Point, r int) bool {
	useMask := 2*len(x.movedList) < x.k
	mask := x.movedMask
	if useMask {
		for _, i := range x.movedList {
			mask[i>>6] |= 1 << (uint(i) & 63)
		}
	}
	x.sweepAll = false
	flipOn := x.flipOn[:0]
	pairs := x.pairs
	pass := x.passBits
	nPairs := len(pairs) / 2
	flips := 0
	d := x.dsu
	d.Reset()
	for pi := 0; pi < nPairs; pi++ {
		a, b := pairs[2*pi], pairs[2*pi+1]
		w, m := pi>>6, uint64(1)<<(uint(pi)&63)
		if useMask &&
			mask[a>>6]&(1<<(uint(a)&63)) == 0 &&
			mask[b>>6]&(1<<(uint(b)&63)) == 0 {
			if pass[w]&m != 0 {
				d.Union(int(a), int(b))
			}
			continue
		}
		now := grid.ManhattanPoints(pos[a], pos[b]) <= r
		if now != (pass[w]&m != 0) {
			pass[w] ^= m
			flips++
			if now {
				flipOn = append(flipOn, a, b)
			}
		}
		if now {
			d.Union(int(a), int(b))
		}
	}
	if useMask {
		for _, i := range x.movedList {
			mask[i>>6] = 0
		}
	}
	x.flipOn = flipOn
	return flips > 0
}

// labelPass assigns the dense first-appearance labels from the current
// forest — the same deterministic pass as the full path, so equal
// partitions yield equal labels.
func (x *Incremental) labelPass() {
	k := x.k
	x.count = x.dsu.DenseLabels(x.labels[:k], x.rootLabel[:k])
	x.labelsClean = true
}
