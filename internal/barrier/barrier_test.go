package barrier

import (
	"testing"

	"mobilenet/internal/agent"
	"mobilenet/internal/core"
	"mobilenet/internal/grid"
	"mobilenet/internal/rng"
)

func pt(x, y int32) grid.Point { return grid.Point{X: x, Y: y} }

func openDomain(t *testing.T, side int) *Domain {
	t.Helper()
	d, err := NewDomain(grid.MustNew(side))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewDomain(t *testing.T) {
	t.Parallel()
	if _, err := NewDomain(nil); err == nil {
		t.Error("nil grid accepted")
	}
	d := openDomain(t, 8)
	if d.FreeNodes() != 64 {
		t.Errorf("FreeNodes = %d, want 64", d.FreeNodes())
	}
	if d.Blocked(pt(3, 3)) {
		t.Error("open domain has blocked node")
	}
	if !d.Blocked(pt(-1, 0)) || !d.Blocked(pt(8, 0)) {
		t.Error("off-grid not treated as blocked")
	}
}

func TestBlockUnblock(t *testing.T) {
	t.Parallel()
	d := openDomain(t, 8)
	if !d.Block(pt(2, 2)) {
		t.Error("first Block reported no change")
	}
	if d.Block(pt(2, 2)) {
		t.Error("second Block reported change")
	}
	if d.FreeNodes() != 63 {
		t.Errorf("FreeNodes = %d after one block", d.FreeNodes())
	}
	if !d.Blocked(pt(2, 2)) {
		t.Error("node not blocked")
	}
	if !d.Unblock(pt(2, 2)) {
		t.Error("Unblock reported no change")
	}
	if d.Unblock(pt(2, 2)) {
		t.Error("second Unblock reported change")
	}
	if d.FreeNodes() != 64 {
		t.Errorf("FreeNodes = %d after unblock", d.FreeNodes())
	}
	if d.Block(pt(-1, 5)) || d.Unblock(pt(99, 5)) {
		t.Error("off-grid block/unblock reported change")
	}
}

func TestAddWall(t *testing.T) {
	t.Parallel()
	d := openDomain(t, 9)
	if err := d.AddWall(4, 3); err != nil {
		t.Fatal(err)
	}
	// Gap of width 3 centred: rows 3,4,5 free; rest blocked.
	for y := int32(0); y < 9; y++ {
		blocked := d.Blocked(pt(4, y))
		wantBlocked := y < 3 || y > 5
		if blocked != wantBlocked {
			t.Errorf("wall col row %d: blocked=%v, want %v", y, blocked, wantBlocked)
		}
	}
	if d.FreeNodes() != 81-6 {
		t.Errorf("FreeNodes = %d, want 75", d.FreeNodes())
	}
	if err := d.AddWall(-1, 2); err == nil {
		t.Error("off-grid wall accepted")
	}
	if err := d.AddWall(2, 100); err == nil {
		t.Error("oversized gap accepted")
	}
}

func TestAddWallFullGapBlocksNothing(t *testing.T) {
	t.Parallel()
	d := openDomain(t, 6)
	if err := d.AddWall(3, 6); err != nil {
		t.Fatal(err)
	}
	if d.FreeNodes() != 36 {
		t.Errorf("gap=side wall blocked %d nodes", 36-d.FreeNodes())
	}
}

func TestAddRandomObstacles(t *testing.T) {
	t.Parallel()
	d := openDomain(t, 16)
	if err := d.AddRandomObstacles(0.2, rng.New(1)); err != nil {
		t.Fatal(err)
	}
	blocked := 256 - d.FreeNodes()
	if blocked < 30 || blocked > 52 {
		t.Errorf("density 0.2 blocked %d/256 nodes", blocked)
	}
	if err := d.AddRandomObstacles(-0.1, rng.New(1)); err == nil {
		t.Error("negative density accepted")
	}
	if err := d.AddRandomObstacles(1.0, rng.New(1)); err == nil {
		t.Error("density 1 accepted")
	}
	if err := d.AddRandomObstacles(0.1, nil); err == nil {
		t.Error("nil source accepted")
	}
}

func TestFreeConnected(t *testing.T) {
	t.Parallel()
	d := openDomain(t, 8)
	if !d.FreeConnected() {
		t.Error("open domain not connected")
	}
	// Wall with a gap keeps it connected.
	if err := d.AddWall(4, 2); err != nil {
		t.Fatal(err)
	}
	if !d.FreeConnected() {
		t.Error("gapped wall disconnected the domain")
	}
	// Sealing the gap splits it.
	d2 := openDomain(t, 8)
	if err := d2.AddWall(4, 0); err != nil {
		t.Fatal(err)
	}
	if d2.FreeConnected() {
		t.Error("solid wall left the domain connected")
	}
}

func TestFreeConnectedEmpty(t *testing.T) {
	t.Parallel()
	d := openDomain(t, 2)
	for y := int32(0); y < 2; y++ {
		for x := int32(0); x < 2; x++ {
			d.Block(pt(x, y))
		}
	}
	if d.FreeConnected() {
		t.Error("fully blocked domain reported connected")
	}
}

func TestStepRespectsWalls(t *testing.T) {
	t.Parallel()
	d := openDomain(t, 5)
	// Box agent into a single free cell surrounded by walls.
	for _, p := range []grid.Point{pt(1, 2), pt(3, 2), pt(2, 1), pt(2, 3)} {
		d.Block(p)
	}
	src := rng.New(3)
	pos := pt(2, 2)
	for i := 0; i < 500; i++ {
		pos = d.Step(pos, src)
		if pos != pt(2, 2) {
			t.Fatalf("agent escaped the box to %v", pos)
		}
	}
}

func TestStepNeverEntersBlocked(t *testing.T) {
	t.Parallel()
	d := openDomain(t, 16)
	if err := d.AddRandomObstacles(0.3, rng.New(5)); err != nil {
		t.Fatal(err)
	}
	st, err := d.Walk().Bind(d.Grid(), 1, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	pos := make([]grid.Point, 1)
	st.Place(pos)
	for i := 0; i < 20000; i++ {
		p := pos[0]
		st.Step(pos)
		if d.Blocked(pos[0]) {
			t.Fatalf("stepped onto blocked node %v", pos[0])
		}
		if grid.ManhattanPoints(p, pos[0]) > 1 {
			t.Fatalf("jumped from %v to %v", p, pos[0])
		}
	}
}

func TestPlaceUniformAvoidsWalls(t *testing.T) {
	t.Parallel()
	d := openDomain(t, 10)
	if err := d.AddWall(5, 2); err != nil {
		t.Fatal(err)
	}
	st, err := d.Walk().Bind(d.Grid(), 200, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	pos := make([]grid.Point, 200)
	st.Place(pos)
	for _, p := range pos {
		if d.Blocked(p) {
			t.Fatalf("agent placed on blocked node %v", p)
		}
	}
}

// TestWalkMatchesDomainStep pins the walk model to the historical barrier
// loop: rejection placement on the largest free component, drawing X then
// Y per agent, then one Domain.Step per agent per time unit, in index
// order, on one randomness stream.
func TestWalkMatchesDomainStep(t *testing.T) {
	t.Parallel()
	const side, k, steps = 16, 12, 300
	d := openDomain(t, side)
	if err := d.AddRandomObstacles(0.2, rng.New(3)); err != nil {
		t.Fatal(err)
	}
	pop, err := agent.NewWithModel(d.Grid(), k, rng.New(41), d.Walk())
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(41)
	comp, _ := d.LargestFreeComponent()
	ref := make([]grid.Point, k)
	for i := range ref {
		for {
			p := pt(int32(src.Intn(side)), int32(src.Intn(side)))
			if comp.Contains(int(d.Grid().ID(p))) {
				ref[i] = p
				break
			}
		}
	}
	for s := 0; s <= steps; s++ {
		for i := range ref {
			if pop.Position(i) != ref[i] {
				t.Fatalf("t=%d agent %d: %v != Domain.Step %v", s, i, pop.Position(i), ref[i])
			}
		}
		pop.Step()
		for i := range ref {
			ref[i] = d.Step(ref[i], src)
		}
	}
}

func TestWalkBindValidation(t *testing.T) {
	t.Parallel()
	d := openDomain(t, 8)
	w := d.Walk()
	if w.UniformStationary() {
		t.Error("barrier walk claims uniform occupancy of the grid")
	}
	if _, err := w.Bind(grid.MustNew(8), 4, rng.New(1)); err != nil {
		t.Errorf("equal-side grid rejected: %v", err)
	}
	if _, err := w.Bind(grid.MustNew(9), 4, rng.New(1)); err == nil {
		t.Error("grid of another side accepted")
	}
	if _, err := w.Bind(nil, 4, rng.New(1)); err == nil {
		t.Error("nil grid accepted")
	}
	if _, err := w.Bind(d.Grid(), 0, rng.New(1)); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := w.Bind(d.Grid(), 4, nil); err == nil {
		t.Error("nil source accepted")
	}
	blocked := openDomain(t, 2)
	for y := int32(0); y < 2; y++ {
		for x := int32(0); x < 2; x++ {
			blocked.Block(pt(x, y))
		}
	}
	if _, err := blocked.Walk().Bind(blocked.Grid(), 1, rng.New(1)); err == nil {
		t.Error("fully blocked domain accepted")
	}
}

func TestLargestFreeComponent(t *testing.T) {
	t.Parallel()
	d := openDomain(t, 8)
	// Solid wall splits 8x8 into 4*8=32 and 3*8=24 free nodes.
	if err := d.AddWall(4, 0); err != nil {
		t.Fatal(err)
	}
	comp, size := d.LargestFreeComponent()
	if size != 32 {
		t.Fatalf("largest component size = %d, want 32", size)
	}
	// All members left of the wall.
	count := 0
	comp.ForEach(func(id int) bool {
		x := id % 8
		if x >= 4 {
			t.Fatalf("largest component contains node right of wall (x=%d)", x)
		}
		count++
		return true
	})
	if count != 32 {
		t.Fatalf("component bitset has %d members", count)
	}
	// Fully blocked domain.
	d2 := openDomain(t, 2)
	for y := int32(0); y < 2; y++ {
		for x := int32(0); x < 2; x++ {
			d2.Block(pt(x, y))
		}
	}
	if comp, size := d2.LargestFreeComponent(); comp != nil || size != 0 {
		t.Errorf("blocked domain: comp=%v size=%d", comp, size)
	}
}

func TestPlaceUniformConnected(t *testing.T) {
	t.Parallel()
	d := openDomain(t, 10)
	if err := d.AddWall(5, 0); err != nil {
		t.Fatal(err)
	}
	// Largest side is x<5 (5 columns vs 4).
	pos, err := d.PlaceUniformConnected(100, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pos {
		if p.X >= 5 {
			t.Fatalf("agent placed off the largest component at %v", p)
		}
		if d.Blocked(p) {
			t.Fatalf("agent on blocked node %v", p)
		}
	}
	if _, err := d.PlaceUniformConnected(0, rng.New(1)); err == nil {
		t.Error("k=0 accepted")
	}
	// Fully blocked domain errors.
	d2 := openDomain(t, 2)
	for y := int32(0); y < 2; y++ {
		for x := int32(0); x < 2; x++ {
			d2.Block(pt(x, y))
		}
	}
	if _, err := d2.PlaceUniformConnected(1, rng.New(1)); err == nil {
		t.Error("fully blocked domain accepted")
	}
}

// broadcast runs core's broadcast on the domain under its walk.
func broadcast(t testing.TB, d *Domain, cfg core.Config) *core.Broadcast {
	t.Helper()
	cfg.Grid = d.Grid()
	cfg.Mobility = d.Walk()
	b, err := core.NewBroadcast(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b.Run()
	return b
}

// splitPlacement puts half of k agents left of a solid wall at x=5 on a
// 10-side domain and half right of it, agent 0 on the left. The walk's
// own placement cannot: it uses the largest free component only.
func splitPlacement(k int) []grid.Point {
	pos := make([]grid.Point, k)
	for i := range pos {
		x := int32(1)
		if i%2 == 1 {
			x = 8
		}
		pos[i] = pt(x, int32(i%10))
	}
	return pos
}

func TestConnectedPlacementBroadcastCompletesOnSplitDomain(t *testing.T) {
	t.Parallel()
	// With a solid wall, agents on both sides deadlock at r=0, but the
	// walk places everyone on the largest component, so the run completes.
	d := openDomain(t, 10)
	if err := d.AddWall(5, 0); err != nil {
		t.Fatal(err)
	}
	b := broadcast(t, d, core.Config{K: 8, Seed: 11, MaxSteps: 500000})
	if res := b.Result(); !res.Completed {
		t.Fatalf("connected placement did not complete: %+v", res)
	}
}

func TestRunBroadcastValidation(t *testing.T) {
	t.Parallel()
	d := openDomain(t, 8)
	blocked := openDomain(t, 2)
	for y := int32(0); y < 2; y++ {
		for x := int32(0); x < 2; x++ {
			blocked.Block(pt(x, y))
		}
	}
	bad := []core.Config{
		{Grid: grid.MustNew(9), K: 4, Mobility: d.Walk()},
		{Grid: d.Grid(), K: 0, Mobility: d.Walk()},
		{Grid: d.Grid(), K: 4, Radius: -1, Mobility: d.Walk()},
		{Grid: blocked.Grid(), K: 4, Mobility: blocked.Walk()},
	}
	for i, c := range bad {
		if _, err := core.RunBroadcast(c); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestRunBroadcastOpenDomainCompletes(t *testing.T) {
	t.Parallel()
	d := openDomain(t, 8)
	b := broadcast(t, d, core.Config{K: 6, Seed: 1, MaxSteps: 100000})
	if res := b.Result(); !res.Completed || b.InformedCount() != 6 {
		t.Fatalf("open-domain broadcast: %+v, %d informed", res, b.InformedCount())
	}
}

func TestRunBroadcastThroughGap(t *testing.T) {
	t.Parallel()
	d := openDomain(t, 12)
	if err := d.AddWall(6, 2); err != nil {
		t.Fatal(err)
	}
	b := broadcast(t, d, core.Config{K: 8, Seed: 3, MaxSteps: 500000})
	if res := b.Result(); !res.Completed {
		t.Fatalf("gapped-wall broadcast incomplete: %+v", res)
	}
}

func TestRunBroadcastBlockedBySolidWallMobility(t *testing.T) {
	t.Parallel()
	// Solid wall, radius 0: the rumor cannot cross by movement and there
	// is no radio bridge, so with agents on both sides the broadcast must
	// NOT complete.
	d := openDomain(t, 10)
	if err := d.AddWall(5, 0); err != nil {
		t.Fatal(err)
	}
	b := broadcast(t, d, core.Config{K: 8, Seed: 11, MaxSteps: 20000, Placement: splitPlacement(8)})
	if res := b.Result(); res.Completed {
		t.Fatalf("broadcast crossed a solid wall at r=0: %+v", res)
	}
	if inf := b.InformedCount(); inf < 1 || inf > 4 {
		t.Errorf("informed = %d, want the left side at most", inf)
	}
	for i := 1; i < 8; i += 2 {
		if b.Informed(i) {
			t.Fatalf("agent %d right of the wall is informed", i)
		}
	}
}

func TestRunBroadcastRadioBridgesWall(t *testing.T) {
	t.Parallel()
	// Same solid wall and split population, but a transmission radius wide
	// enough to bridge the one-node-thick wall: broadcast completes
	// (communication penetrates).
	d := openDomain(t, 10)
	if err := d.AddWall(5, 0); err != nil {
		t.Fatal(err)
	}
	b := broadcast(t, d, core.Config{K: 12, Radius: 4, Seed: 13, MaxSteps: 200000, Placement: splitPlacement(12)})
	if res := b.Result(); !res.Completed {
		t.Fatalf("radio did not bridge the wall: %+v", res)
	}
}

func TestBarrierDeterministic(t *testing.T) {
	t.Parallel()
	mk := func() core.BroadcastResult {
		d := openDomain(t, 10)
		if err := d.AddRandomObstacles(0.15, rng.New(21)); err != nil {
			t.Fatal(err)
		}
		return broadcast(t, d, core.Config{K: 5, Seed: 17, MaxSteps: 300000}).Result()
	}
	if a, b := mk(), mk(); a.Steps != b.Steps || a.Completed != b.Completed {
		t.Fatalf("barrier broadcast not deterministic: %+v vs %+v", a, b)
	}
}

func BenchmarkBarrierBroadcast(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d, err := NewDomain(grid.MustNew(24))
		if err != nil {
			b.Fatal(err)
		}
		if err := d.AddWall(12, 4); err != nil {
			b.Fatal(err)
		}
		cfg := core.Config{Grid: d.Grid(), K: 12, Seed: uint64(i), MaxSteps: 1 << 20, Mobility: d.Walk()}
		if _, err := core.RunBroadcast(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
