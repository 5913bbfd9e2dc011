package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"drainnet/internal/tensor"
)

// oracleAdaptivePool is AdaptiveMaxPool2D.Infer's task before the
// pyramid pass, kept as its oracle: one level at a time, bins tabulated
// per shape, each bin a row-major `v > best` scan from -Inf.
type oracleAdaptivePool struct {
	x, out       []float32
	h, w, oh, ow int
	rows, cols   []int
}

func (t *oracleAdaptivePool) setBins(h, w, oh, ow int) {
	t.h, t.w, t.oh, t.ow = h, w, oh, ow
	t.rows, t.cols = t.rows[:0], t.cols[:0]
	for oy := 0; oy < oh; oy++ {
		y0, y1 := binBounds(oy, h, oh)
		t.rows = append(t.rows, y0, y1)
	}
	for ox := 0; ox < ow; ox++ {
		x0, x1 := binBounds(ox, w, ow)
		t.cols = append(t.cols, x0, x1)
	}
}

func (t *oracleAdaptivePool) RunRange(lo, hi int) {
	for nc := lo; nc < hi; nc++ {
		in := t.x[nc*t.h*t.w : (nc+1)*t.h*t.w]
		out := t.out[nc*t.oh*t.ow : (nc+1)*t.oh*t.ow]
		for oy := 0; oy < t.oh; oy++ {
			y0, y1 := t.rows[2*oy], t.rows[2*oy+1]
			for ox := 0; ox < t.ow; ox++ {
				x0, x1 := t.cols[2*ox], t.cols[2*ox+1]
				best := float32(math.Inf(-1))
				for iy := y0; iy < y1; iy++ {
					for _, v := range in[iy*t.w+x0 : iy*t.w+x1] {
						if v > best {
							best = v
						}
					}
				}
				out[oy*t.ow+ox] = best
			}
		}
	}
}

// oracleSPPInfer is SPP.Infer before the pyramid pass: one adaptive pool
// per level over the worker pool into scratch, then the per-sample
// copies into the concatenated output.
func oracleSPPInfer(levels []int, x *tensor.Tensor) *tensor.Tensor {
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	width := 0
	for _, l := range levels {
		width += c * l * l
	}
	out := tensor.New(n, width)
	col := 0
	var t oracleAdaptivePool
	for _, l := range levels {
		po := tensor.New(n, c, l, l)
		t.x, t.out = x.Data(), po.Data()
		t.setBins(h, w, l, l)
		tensor.ParallelRange(n*c, 1, &t)
		feat := c * l * l
		for i := 0; i < n; i++ {
			copy(out.Data()[i*width+col:i*width+col+feat], po.Data()[i*feat:(i+1)*feat])
		}
		col += feat
	}
	return out
}

func requireExactBits(t *testing.T, what string, got, want *tensor.Tensor) {
	t.Helper()
	if fmt.Sprint(got.Shape()) != fmt.Sprint(want.Shape()) {
		t.Fatalf("%s: shape %v, want %v", what, got.Shape(), want.Shape())
	}
	for i, wv := range want.Data() {
		if gv := got.Data()[i]; math.Float32bits(gv) != math.Float32bits(wv) {
			t.Fatalf("%s: element %d = %x (%v), want %x (%v)", what, i, math.Float32bits(gv), gv, math.Float32bits(wv), wv)
		}
	}
}

// The pyramid pass must store exactly the old per-level pools' bits —
// a max picks an input, so there is no NaN payload to forgive — on
// square and non-square planes, levels coarser and finer than the plane
// (a level past the input repeats cells across bins), one and several
// samples and channels, one replica's task seeing shape after shape,
// and planes salted with NaN, ±Inf, ±0 and subnormals up to all-hostile
// (bins of only NaNs give -Inf, equal zeros keep the first one seen).
func TestSPPPyramidMatchesPerLevelPools(t *testing.T) {
	rng := rand.New(rand.NewSource(3701))
	pyramids := [][]int{{5, 2, 1}, {1}, {4, 2, 1}, {7, 3}, {5, 4, 3, 2, 1}, {13, 6, 1}}
	a := tensor.NewArena()
	cases := 0
	for _, levels := range pyramids {
		spp := NewSPP(levels...)
		for _, hw := range [][2]int{{5, 5}, {1, 1}, {2, 7}, {11, 13}, {13, 11}, {5, 5}, {3, 12}, {12, 12}} {
			for _, nc := range [][2]int{{1, 1}, {3, 4}, {16, 16}} {
				for _, share := range []float64{0, 0.2, 0.7, 1} {
					x := randInput(rng, nc[0], nc[1], hw[0], hw[1])
					salt(rng, x.Data(), share)
					if share == 1 {
						// Only zeros of both signs and NaN: every bin is a tie
						// or empty of numbers.
						for i, v := range x.Data() {
							switch {
							case v != v || i%3 == 0:
								x.Data()[i] = float32(math.NaN())
							case i%2 == 0:
								x.Data()[i] = float32(math.Copysign(0, -1))
							default:
								x.Data()[i] = 0
							}
						}
					}
					a.Reset()
					name := fmt.Sprintf("levels %v, %dx%dx%dx%d, %.0f%% hostile", levels, nc[0], nc[1], hw[0], hw[1], 100*share)
					requireExactBits(t, name, spp.Infer(x, a), oracleSPPInfer(levels, x))
					cases++
				}
			}
		}
	}
	// AdaptiveMaxPool2D.Infer is the pass's one-level case, non-square
	// grids included.
	for _, grid := range [][2]int{{1, 1}, {3, 2}, {2, 5}, {5, 5}} {
		p := &AdaptiveMaxPool2D{OutH: grid[0], OutW: grid[1]}
		for _, hw := range [][2]int{{5, 5}, {2, 3}, {9, 4}} {
			x := randInput(rng, 2, 3, hw[0], hw[1])
			salt(rng, x.Data(), 0.3)
			want := tensor.New(2, 3, grid[0], grid[1])
			o := oracleAdaptivePool{x: x.Data(), out: want.Data()}
			o.setBins(hw[0], hw[1], grid[0], grid[1])
			o.RunRange(0, 6)
			a.Reset()
			requireExactBits(t, fmt.Sprintf("%dx%d bins over %dx%d", grid[0], grid[1], hw[0], hw[1]), p.Infer(x, a), want)
		}
	}
	if cases < 500 {
		t.Fatalf("only %d pyramid cases ran", cases)
	}
}

// BenchmarkSPPInfer times the bench net's pyramid (levels 5, 2, 1 over
// sixteen 5×5 planes per clip) at batch 1 and 16, against the per-level
// pools it replaced. Planes are ReLU'd (a third zeros), so the compares
// see the ties and the unpredictable branches of served activations.
func BenchmarkSPPInfer(b *testing.B) {
	rng := rand.New(rand.NewSource(3702))
	for _, n := range []int{1, 16} {
		const clips = 8
		xs := make([]*tensor.Tensor, clips)
		for i := range xs {
			xs[i] = randInput(rng, n, 16, 5, 5)
			for j, v := range xs[i].Data() {
				xs[i].Data()[j] = max(v, 0)
			}
		}
		spp := NewSPP(5, 2, 1)
		a := tensor.NewArena()
		b.Run(fmt.Sprintf("pyramid/b%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				a.Reset()
				spp.Infer(xs[i%clips], a)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n)/1e3, "us/clip")
		})
		b.Run(fmt.Sprintf("perlevel/b%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				oracleSPPInfer(spp.Levels, xs[i%clips])
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n)/1e3, "us/clip")
		})
	}
}
