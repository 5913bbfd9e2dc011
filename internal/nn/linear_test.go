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

// From tensor.KernelCols samples up a Linear runs its batch as one packed
// GEMM. Every output must carry the bits the per-sample dot route gives
// it — on fc0's shape, on layers whose output count leaves a partial
// panel, at every batch around the switch and the micro-kernel's ragged
// tail, with bias and ReLU each on and off, through NaN, infinities,
// negative zeros and subnormals.
func TestLinearBatchGEMMMatchesDot(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for _, shape := range []struct{ in, out int }{{480, 256}, {37, 18}, {9, 5}} {
		l := NewLinear(rng, shape.in, shape.out)
		l.Bias.Value.RandNormal(rng, 0, 1)
		l.prepareInference()
		a := tensor.NewArena()
		for n := 1; n <= 40; n++ {
			x := make([]float32, n*shape.in)
			linearSpecials(rng, x, n, shape.in)
			for _, bias := range [][]float32{nil, l.Bias.Value.Data()} {
				for _, relu := range []bool{false, true} {
					a.Reset()
					got := make([]float32, n*shape.out)
					l.inferInto(got, x, n, a, bias, relu)
					want := make([]float32, shape.out)
					for i := 0; i < n; i++ {
						l.packed.DotPanelsInto(want, x[i*shape.in:(i+1)*shape.in], 0, l.packed.Panels(), bias, relu)
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
// 480 features to 256, ReLU fused) at batch 1, on the dot route, and at
// batch 16, on the GEMM route.
func BenchmarkLinearBatch(b *testing.B) {
	for _, n := range []int{1, 16} {
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
