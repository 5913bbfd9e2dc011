package nn

import (
	"fmt"
	"math/rand"
	"testing"

	"drainnet/internal/tensor"
)

// BenchmarkConvBlock times conv → ReLU → 2×2 max-pool the way the
// serving chain runs it, on the three blocks of the benchmark harness's
// model and on one layer at the paper's width, over 64 distinct inputs
// (a repeated input makes the pool's compares predictable and the
// scalar pool look ≈ 4× cheaper than it serves). Run with -cpu 1,2: the
// batch-1 rows, built once with convSplitMACs at 0 (every block splits
// by panel) and once at 1<<62 (none does), are how that constant is set.
func BenchmarkConvBlock(b *testing.B) {
	for _, tc := range []struct {
		name          string
		inC, outC, hw int
		batches       []int
	}{
		{"conv0", 4, 4, 40, []int{1, 16}},
		{"conv1", 4, 8, 20, []int{1, 16}},
		{"conv2", 8, 16, 10, []int{1, 16}},
		{"paper64x128at50", 64, 128, 50, []int{1}},
	} {
		for _, n := range tc.batches {
			b.Run(fmt.Sprintf("%s/b%d", tc.name, n), func(b *testing.B) {
				rng := rand.New(rand.NewSource(6))
				net := NewSequential(NewConv2D(rng, tc.inC, tc.outC, 3, 1), NewReLU(), NewMaxPool2D(2, 2))
				PrepareInference(net)
				// 64 inputs, fewer where that would be tens of megabytes.
				distinct := max(n, min(64, (1<<20)/(tc.inC*tc.hw*tc.hw)))
				xs := make([]*tensor.Tensor, distinct/n)
				for i := range xs {
					xs[i] = tensor.New(n, tc.inC, tc.hw, tc.hw)
					xs[i].RandNormal(rng, 0, 1)
				}
				a := tensor.NewArena()
				net.Infer(xs[0], a)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					a.Reset()
					net.Infer(xs[i%len(xs)], a)
				}
			})
		}
	}
}

func BenchmarkConvForward64x50x50(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	conv := NewConv2D(rng, 64, 128, 3, 1)
	x := tensor.New(1, 64, 50, 50)
	x.RandNormal(rng, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conv.Forward(x)
	}
}

func BenchmarkConvBackward64x50x50(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	conv := NewConv2D(rng, 64, 128, 3, 1)
	x := tensor.New(1, 64, 50, 50)
	x.RandNormal(rng, 0, 1)
	out := conv.Forward(x)
	grad := tensor.New(out.Shape()...)
	grad.RandNormal(rng, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conv.Backward(grad)
	}
}

func BenchmarkSPPForward(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	spp := NewSPP(5, 2, 1)
	x := tensor.New(4, 256, 12, 12)
	x.RandNormal(rng, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spp.Forward(x)
	}
}

func BenchmarkLinearForward4096(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	lin := NewLinear(rng, 7680, 4096)
	x := tensor.New(4, 7680)
	x.RandNormal(rng, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lin.Forward(x)
	}
}

func BenchmarkBatchNormForward(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	bn := NewBatchNorm2D(64)
	x := tensor.New(8, 64, 25, 25)
	x.RandNormal(rng, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bn.Forward(x)
	}
}
