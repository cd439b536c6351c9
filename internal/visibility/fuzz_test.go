package visibility

// Native fuzz targets for the incremental connectivity kernel. Both decode
// a raw byte stream into a deterministic scenario — agent count, radius,
// initial layout, and a sequence of per-step move deltas or teleports —
// then drive two labellers against the from-scratch reference and the
// white-box invariant oracle: the incremental kernel at every population
// (the scenarios decode k in [2, 41], mostly inside the all-pairs regime,
// so the kernel variant is pinned to the kernel), and the production
// selection, which checks every pair up to allPairsK agents.
//
//   FuzzIncrementalIndex   random move deltas (smooth drift, teleports,
//                          window escapes) vs a from-scratch rebuild:
//                          labels, counts, and CSR internals must match.
//   FuzzFrontierRelabel    random dirty sets driven through the frontier
//                          recheck (including the zero-flip label-reuse
//                          fast path) vs a full relabel, plus informed-set
//                          floods on both paths.
//
// Seed corpora live under testdata/fuzz/<Target>/; CI runs each target for
// a short -fuzztime smoke in the fuzz-smoke job.

import (
	"testing"

	"mobilenet/internal/bitset"
	"mobilenet/internal/grid"
)

// fuzzReader doles out bytes from the fuzz input, falling back to a fixed
// cycle when the stream runs dry so every prefix decodes to a full
// scenario.
type fuzzReader struct {
	data []byte
	off  int
}

func (fr *fuzzReader) byte() byte {
	if fr.off >= len(fr.data) {
		fr.off++
		return byte(fr.off * 131)
	}
	b := fr.data[fr.off]
	fr.off++
	return b
}

func (fr *fuzzReader) int(n int) int {
	if n <= 0 {
		return 0
	}
	v := int(fr.byte())<<8 | int(fr.byte())
	return v % n
}

// fuzzScenario decodes the common preamble: a small population on a
// bounded coordinate range with a small radius, so components are dense
// enough to exercise unions but the brute-force oracle stays cheap.
func fuzzScenario(fr *fuzzReader) (pos []grid.Point, r int) {
	k := 2 + fr.int(40)
	r = fr.int(10)
	span := 4 + fr.int(60)
	pos = make([]grid.Point, k)
	for i := range pos {
		pos[i] = grid.Point{X: int32(fr.int(span)), Y: int32(fr.int(span))}
	}
	return pos, r
}

// applyFuzzMoves mutates pos in place from the stream: mostly short
// deltas, occasionally a long teleport (stressing window re-anchor and
// budget blowout) or a coordinate near the int32 extremes (stressing the
// saturating window arithmetic).
func applyFuzzMoves(fr *fuzzReader, pos []grid.Point) {
	moves := fr.int(len(pos) * 2)
	for m := 0; m < moves; m++ {
		i := fr.int(len(pos))
		switch fr.byte() % 8 {
		case 0: // teleport within a wide box
			pos[i] = grid.Point{X: int32(fr.int(4096)) - 2048, Y: int32(fr.int(4096)) - 2048}
		case 1: // extreme coordinates
			x := int32(1<<31 - 1 - fr.int(3))
			if fr.byte()&1 == 0 {
				x = int32(-1<<31 + fr.int(3))
			}
			pos[i] = grid.Point{X: x, Y: int32(fr.int(64))}
		default: // short drift, the steady-state case
			pos[i].X += int32(fr.int(5)) - 2
			pos[i].Y += int32(fr.int(5)) - 2
		}
	}
}

// fuzzVariants returns the two labellers each fuzz step checks against the
// full-rebuild reference: the kernel pinned on at every k, and the
// production selection.
func fuzzVariants(k int) []*diffVariant {
	return []*diffVariant{kernelVariant("kernel", k, 1), newDiffVariant("selected", k, 1, false)}
}

// requireSameLabels compares an incremental result against the
// from-scratch reference byte for byte.
func requireSameLabels(t *testing.T, step int, name string, gotL []int32, gotC int, wantL []int32, wantC int) {
	t.Helper()
	if gotC != wantC {
		t.Fatalf("step %d %s: count %d, reference %d", step, name, gotC, wantC)
	}
	for i := range wantL {
		if gotL[i] != wantL[i] {
			t.Fatalf("step %d %s agent %d: label %d, reference %d", step, name, i, gotL[i], wantL[i])
		}
	}
}

// FuzzIncrementalIndex drives random move deltas through the incremental
// kernel and checks labels against a from-scratch rebuild plus the CSR
// internal-consistency oracle after every step.
func FuzzIncrementalIndex(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 0, 2, 0, 16, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5})
	f.Add([]byte{0, 40, 0, 9, 0, 8, 255, 255, 255, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Fuzz(func(t *testing.T, data []byte) {
		fr := &fuzzReader{data: data}
		pos, r := fuzzScenario(fr)
		k := len(pos)
		vs := fuzzVariants(k)
		ref := NewIncremental(k)
		ref.SetFullRebuild(true)
		refLabels := make([]int32, k)
		steps := 2 + fr.int(12)
		for s := 0; s < steps; s++ {
			if s > 0 {
				applyFuzzMoves(fr, pos)
			}
			wl, wc := ref.Components(pos, r)
			copy(refLabels, wl)
			for _, v := range vs {
				gl, gc := v.x.Components(pos, r)
				requireSameLabels(t, s, v.name, gl, gc, refLabels, wc)
				if err := v.x.checkInternalState(pos); err != nil {
					t.Fatalf("step %d %s: %v", s, v.name, err)
				}
			}
		}
	})
}

// FuzzFrontierRelabel drives random dirty sets — subsets of agents nudged
// while the rest hold still, so the masked frontier recheck (not a full
// rescan) does the work — and checks the label pass and informed-set flood
// against the full path, including steps with zero flips where the kernel
// reuses cached labels wholesale.
func FuzzFrontierRelabel(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 1, 0, 3, 0, 20, 9, 9, 9, 9, 0, 0, 0, 0, 1, 1, 1, 1})
	f.Add([]byte{0, 20, 0, 1, 0, 30, 5, 4, 3, 2, 1, 0, 1, 2, 3, 4, 5, 6, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		fr := &fuzzReader{data: data}
		pos, r := fuzzScenario(fr)
		k := len(pos)
		vs := fuzzVariants(k)
		ref := NewIncremental(k)
		ref.SetFullRebuild(true)
		refInf := bitset.New(k)
		src := fr.int(k)
		refInf.Add(src)
		for _, v := range vs {
			v.informed.Clear()
			v.informed.Add(src)
		}
		refLabels := make([]int32, k)
		steps := 2 + fr.int(12)
		for s := 0; s < steps; s++ {
			if s > 0 {
				// Dirty set: a few agents take one-cell-scale nudges; the
				// stream decides how many, sometimes zero (the label-reuse
				// fast path).
				dirty := fr.int(1 + k/3)
				for d := 0; d < dirty; d++ {
					i := fr.int(k)
					pos[i].X += int32(fr.int(3)) - 1
					pos[i].Y += int32(fr.int(3)) - 1
				}
			}
			wl, wc := ref.Components(pos, r)
			copy(refLabels, wl)
			for _, v := range vs {
				gl, gc := v.x.Components(pos, r)
				requireSameLabels(t, s, v.name, gl, gc, refLabels, wc)
				if err := v.x.checkInternalState(pos); err != nil {
					t.Fatalf("step %d %s: %v", s, v.name, err)
				}
			}
			refNew := ref.Flood(pos, r, refInf, nil)
			for _, v := range vs {
				v.newly = v.x.Flood(pos, r, v.informed, v.newly[:0])
				if len(refNew) != len(v.newly) {
					t.Fatalf("step %d %s: %d newly informed, reference %d", s, v.name, len(v.newly), len(refNew))
				}
				for i := range refNew {
					if refNew[i] != v.newly[i] {
						t.Fatalf("step %d %s: newly[%d]=%d, reference %d", s, v.name, i, v.newly[i], refNew[i])
					}
				}
				if !v.informed.Equal(refInf) {
					t.Fatalf("step %d %s: informed set diverged", s, v.name)
				}
			}
		}
	})
}
