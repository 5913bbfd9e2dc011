package nn

import (
	"math"
	"math/rand"
	"testing"

	"drainnet/internal/tensor"
)

// The 2×2 / stride-2 fast path must pick, bit for bit, what the generic
// window loop picks — on odd heights and widths (whose last row or column
// no window covers) and on planes salted with the values an ordering
// mistake would expose: NaN never wins, an all-NaN window stays -Inf,
// and of +0 and -0 the first one seen stays.
func TestMaxPool2x2MatchesGenericLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(2108))
	hostile := []float32{
		float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
		float32(math.Copysign(0, -1)), 0,
	}
	g := tensor.ConvGeom{KH: 2, KW: 2, StrideH: 2, StrideW: 2}
	for _, hw := range [][2]int{{2, 2}, {3, 3}, {2, 7}, {7, 2}, {8, 8}, {9, 6}, {13, 11}, {40, 40}} {
		for _, share := range []float64{0, 0.2, 0.9, 1} {
			const planes = 5
			h, w := hw[0], hw[1]
			oh, ow := g.OutSize(h, w)
			x := make([]float32, planes*h*w)
			for i := range x {
				x[i] = float32(rng.NormFloat64())
				if rng.Float64() < share {
					x[i] = hostile[rng.Intn(len(hostile))]
				}
			}
			want := make([]float32, planes*oh*ow)
			got := make([]float32, planes*oh*ow)
			ref := maxPoolTask{x: x, out: want, h: h, w: w, oh: oh, ow: ow, geom: g}
			ref.poolGeneric(0, planes)
			fast := maxPoolTask{x: x, out: got, h: h, w: w, oh: oh, ow: ow, geom: g}
			fast.RunRange(0, 2)
			fast.RunRange(2, planes)
			for i := range want {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("%dx%d salted %.0f%%: output %d = %v, generic loop gives %v", h, w, 100*share, i, got[i], want[i])
				}
			}
		}
	}
}
