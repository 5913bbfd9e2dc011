package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"drainnet/internal/tensor"
)

// linearSpecials fills x (n×in) with normal values and gives each sample
// one class of special input: NaN, both infinities, negative zeros or
// subnormals. A sample carries one class only, so the one NaN an output
// chain can hold has one bit pattern whichever route computed it.
func linearSpecials(rng *rand.Rand, x []float32, n, in int) {
	sub := []float32{math.Float32frombits(1), math.Float32frombits(0x007fffff), -math.Float32frombits(3)}
	for i := 0; i < n; i++ {
		row := x[i*in : (i+1)*in]
		for k := range row {
			row[k] = float32(rng.NormFloat64())
		}
		for j := 0; j < 3; j++ {
			k := rng.Intn(in)
			switch i % 6 {
			case 1:
				row[k] = float32(math.NaN())
			case 2:
				row[k] = float32(math.Inf(1 - 2*(j%2)))
			case 3:
				row[k] = float32(math.Copysign(0, -1))
			case 4:
				row[k] = sub[j]
			case 5:
				row[k] = float32(math.Inf(1))
			}
		}
		if i%6 == 3 {
			// An all-negative-zero sample: every product is a signed zero.
			for k := range row {
				row[k] = float32(math.Copysign(0, -1))
			}
		}
	}
}

// linearDot is the scalar per-sample dot the FC layers served below
// batch 16 before one kernel took every batch, kept as the oracle: w is
// the row-major Out×In weight matrix, and each output one chain over
// ascending k from zero, then the bias add, then the clamp.
func linearDot(dst, w, x, bias []float32, relu bool) {
	for r := range dst {
		var acc float32
		for kk, v := range x {
			acc += w[r*len(x)+kk] * v
		}
		if bias != nil {
			acc += bias[r]
		}
		if relu && !(acc > 0) {
			acc = 0
		}
		dst[r] = acc
	}
}

// A Linear runs every batch through one FC kernel entry. Every output
// must carry the bits the per-sample scalar dot gives it — on fc0's
// shape, on layers whose output count leaves a partial 16-row group, at
// every batch around the kernel's tiles and their tails, with bias and
// ReLU each on and off, through NaN, infinities, negative zeros and
// subnormals.
func TestLinearBatchGEMMMatchesDot(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for _, shape := range []struct{ in, out int }{{480, 256}, {37, 18}, {9, 5}} {
		l := NewLinear(rng, shape.in, shape.out)
		l.Bias.Value.RandNormal(rng, 0, 1)
		l.prepareInference()
		for n := 1; n <= 40; n++ {
			x := make([]float32, n*shape.in)
			linearSpecials(rng, x, n, shape.in)
			for _, bias := range [][]float32{nil, l.Bias.Value.Data()} {
				for _, relu := range []bool{false, true} {
					got := make([]float32, n*shape.out)
					l.inferInto(got, x, n, bias, relu)
					want := make([]float32, shape.out)
					for i := 0; i < n; i++ {
						linearDot(want, l.Weight.Value.Data(), x[i*shape.in:(i+1)*shape.in], bias, relu)
						for o, w := range want {
							if g := got[i*shape.out+o]; math.Float32bits(g) != math.Float32bits(w) {
								t.Fatalf("%dx%d batch %d bias=%v relu=%v: sample %d output %d = %v (%#08x), dot route %v (%#08x)",
									shape.out, shape.in, n, bias != nil, relu, i, o, g, math.Float32bits(g), w, math.Float32bits(w))
							}
						}
					}
				}
			}
		}
	}
}

// BenchmarkLinearBatch times fc0 of the benchmark harness's model (SPP's
// 480 features to 256, ReLU fused) at batches 1, 8, 16 and 17: the
// one-sample tile, it repeated, the multi-sample tile, and that tile
// plus one sample.
func BenchmarkLinearBatch(b *testing.B) {
	for _, n := range []int{1, 8, 16, 17} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(7))
			l := NewLinear(rng, 480, 256)
			x := tensor.New(n, 480)
			x.RandNormal(rng, 0, 1)
			a := tensor.NewArena()
			l.inferFused(x, a, true)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.Reset()
				l.inferFused(x, a, true)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/clip")
		})
	}
}
