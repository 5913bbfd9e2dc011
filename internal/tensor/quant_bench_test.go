package tensor

import (
	"math/rand"
	"testing"
)

// Micro-benchmarks comparing the int8 GEMM building blocks to their fp32
// siblings on conv2-like shapes (k = 128·3·3, n = 23·23), so a kernel
// regression shows up here before it shows up in `make bench-inference`.

const (
	qbM = 64
	qbK = 1152
	qbN = 529
)

func benchMatrices() (*Packed, *PackedInt8, []float32, []int8) {
	rng := rand.New(rand.NewSource(1))
	w := New(qbM, qbK)
	w.RandNormal(rng, 0, 1)
	qw, _ := QuantizeSymmetricPerRow(w)
	bf := make([]float32, qbK*qbN)
	for i := range bf {
		bf[i] = rng.Float32()*2 - 1
	}
	bq := make([]int8, len(bf))
	QuantizeSlice(bq, bf, 127, 0)
	return PackMatrix(w), PackInt8(qw, qbM, qbK), bf, bq
}

func BenchmarkPackedMulFP32(b *testing.B) {
	p, _, bf, _ := benchMatrices()
	dst := make([]float32, qbM*qbN)
	bias := make([]float32, qbM)
	b.SetBytes(int64(qbK * qbN * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.MulPanelsInto(dst, bf, qbN, bias, true, 0, p.Panels())
	}
}

func BenchmarkPackedMulInt8(b *testing.B) {
	_, q, _, bq := benchMatrices()
	dst := make([]float32, qbM*qbN)
	bias := make([]float32, qbM)
	outScale := make([]float32, qbM)
	for i := range outScale {
		outScale[i] = 0.01
	}
	acc := make([]int64, 2*qbN)
	b.SetBytes(int64(qbK * qbN))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.MulPanelsInto(dst, bq, qbN, acc, -3, outScale, bias, true, 0, q.Panels())
	}
}

func BenchmarkQuantizeSlice(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	src := make([]float32, qbK*qbN)
	for i := range src {
		src[i] = rng.Float32()*2 - 1
	}
	dst := make([]int8, len(src))
	b.SetBytes(int64(len(src) * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		QuantizeSlice(dst, src, 42.3, -3)
	}
}

func BenchmarkIm2ColInt8(b *testing.B) {
	img := make([]int8, 128*25*25)
	for i := range img {
		img[i] = int8(i % 251)
	}
	g := ConvGeom{KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	oh, ow := g.OutSize(25, 25)
	dst := make([]int8, 128*9*oh*ow)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Im2ColSliceInt8(dst, img, 128, 25, 25, g, -3)
	}
}

// BenchmarkInt8Kernels times the int8 panel GEMM on the bench net's
// lowered int8 convs (rows × terms × OH·OW of the ÷16 SPP-Net #2 on
// 40×40 clips) and the int8 FC dot (fc0, 256 × 480, one sample), on
// each assembly leg.
func BenchmarkInt8Kernels(b *testing.B) {
	rng := rand.New(rand.NewSource(3706))
	for _, s := range []struct {
		name    string
		m, k, n int
	}{{"conv0", 4, 36, 1600}, {"conv1", 8, 36, 400}, {"conv2", 16, 72, 100}} {
		q, codes, outScale, bias := int8Case(rng, s.m, s.k, s.n, false, false)
		dst := make([]float32, s.m*s.n)
		acc := make([]int64, 2*s.n)
		benchLegs(b, "panel/"+s.name, func(b *testing.B) {
			p := PackInt8(q, s.m, s.k)
			for i := 0; i < b.N; i++ {
				p.MulPanelsInto(dst, codes, s.n, acc, -3, outScale, bias, true, 0, p.Panels())
			}
		})
	}
	q, x, outScale, bias := int8Case(rng, 256, 480, 1, false, false)
	dst := make([]float32, 256)
	benchLegs(b, "dot/fc0", func(b *testing.B) {
		p := PackInt8(q, 256, 480)
		for i := 0; i < b.N; i++ {
			for pi := 0; pi < p.Panels(); pi++ {
				p.DotPanelInto(dst, x, pi, 5, outScale, bias, true)
			}
		}
	})
}
