package tensor

import (
	"math"
	"math/rand"
	"testing"
)

func TestRoundAwayInt32(t *testing.T) {
	cases := []struct {
		in   float32
		want int32
	}{
		{0, 0}, {0.4, 0}, {0.5, 1}, {0.6, 1}, {1.5, 2},
		{-0.4, 0}, {-0.5, -1}, {-0.6, -1}, {-1.5, -2},
		{126.5, 127}, {-126.5, -127},
	}
	for _, c := range cases {
		if got := roundAwayInt32(c.in); got != c.want {
			t.Errorf("roundAwayInt32(%v) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestQuantizeSymmetricPerRow(t *testing.T) {
	a := New(3, 4)
	copy(a.Data(), []float32{
		1, -2, 0.5, -4, // maxAbs 4 -> scale 4/127
		0, 0, 0, 0, // all-zero row -> scale 0, codes 0
		0.1, -0.1, 0.05, 0.1, // maxAbs 0.1
	})
	q, scales := QuantizeSymmetricPerRow(a)
	if scales[1] != 0 {
		t.Fatalf("zero row scale = %v, want 0", scales[1])
	}
	for i := 4; i < 8; i++ {
		if q[i] != 0 {
			t.Fatalf("zero row code q[%d] = %d, want 0", i, q[i])
		}
	}
	// The max-magnitude element of each nonzero row must map to ±127.
	if q[3] != -127 {
		t.Errorf("q[0][3] = %d, want -127", q[3])
	}
	if q[8] != 127 || q[9] != -127 {
		t.Errorf("row 2 extremes = %d,%d, want 127,-127", q[8], q[9])
	}
	// Round trip: dequantized codes stay within scale/2 of the original.
	for r := 0; r < 3; r++ {
		for k := 0; k < 4; k++ {
			deq := float32(q[r*4+k]) * scales[r]
			if diff := float64(deq - a.Data()[r*4+k]); math.Abs(diff) > float64(scales[r])/2+1e-7 {
				t.Errorf("row %d col %d: dequant %v vs %v (scale %v)", r, k, deq, a.Data()[r*4+k], scales[r])
			}
		}
	}
}

func TestQuantizeSliceClampAndZeroPoint(t *testing.T) {
	scale := float32(0.1)
	zp := int32(-10)
	src := []float32{0, 0.1, -0.1, 1e9, -1e9, 12.7, 0.05}
	dst := make([]int8, len(src))
	QuantizeSlice(dst, src, 1/scale, zp)
	want := []int8{-10, -9, -11, 127, -128, 117, -9 /* 0.5 rounds away */}
	for i := range want {
		if dst[i] != want[i] {
			t.Errorf("QuantizeSlice[%d] = %d, want %d (src %v)", i, dst[i], want[i], src[i])
		}
	}
}

func TestPackedInt8MulMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, rows := range []int{1, 3, 4, 7, 16} {
		for _, n := range []int{1, 5, 32} {
			cols := 9
			q := make([]int8, rows*cols)
			for i := range q {
				q[i] = int8(rng.Intn(255) - 127)
			}
			b := make([]int8, cols*n)
			for i := range b {
				b[i] = int8(rng.Intn(256) - 128)
			}
			zp := int32(rng.Intn(21) - 10)
			outScale := make([]float32, rows)
			bias := make([]float32, rows)
			for r := range outScale {
				outScale[r] = rng.Float32() * 0.01
				bias[r] = rng.Float32() - 0.5
			}
			for _, relu := range []bool{false, true} {
				p := PackInt8(q, rows, cols)
				dst := make([]float32, rows*n)
				acc := make([]int64, 2*n)
				p.MulPanelsInto(dst, b, n, acc, zp, outScale, bias, relu, 0, p.Panels())
				want := refInt8Mul(q, rows, cols, b, n, zp, outScale, bias, relu, false)
				for i := range want {
					if math.Float32bits(dst[i]) != math.Float32bits(want[i]) {
						t.Fatalf("rows=%d n=%d relu=%t: dst[%d]=%v want %v", rows, n, relu, i, dst[i], want[i])
					}
				}
			}
		}
	}
}

func TestPackedInt8DotPanelMatchesMul(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	rows, cols := 10, 17
	q := make([]int8, rows*cols)
	for i := range q {
		q[i] = int8(rng.Intn(255) - 127)
	}
	x := make([]int8, cols)
	for i := range x {
		x[i] = int8(rng.Intn(256) - 128)
	}
	zp := int32(-7)
	outScale := make([]float32, rows)
	bias := make([]float32, rows)
	for r := range outScale {
		outScale[r] = rng.Float32() * 0.02
		bias[r] = rng.Float32() - 0.5
	}
	p := PackInt8(q, rows, cols)
	dot := make([]float32, rows)
	for pi := 0; pi < p.Panels(); pi++ {
		p.DotPanelInto(dot, x, pi, zp, outScale, bias, true)
	}
	mul := make([]float32, rows)
	acc := make([]int64, 2)
	p.MulPanelsInto(mul, x, 1, acc, zp, outScale, bias, true, 0, p.Panels())
	for i := range mul {
		if math.Float32bits(dot[i]) != math.Float32bits(mul[i]) {
			t.Fatalf("dot[%d]=%v vs mul %v", i, dot[i], mul[i])
		}
	}
}

func TestIm2ColSliceInt8PadsWithZeroPoint(t *testing.T) {
	// 1×2×2 image, 3×3 kernel, pad 1: corners of the lowering hit the
	// implicit border and must carry the zero-point code, not 0.
	img := []int8{1, 2, 3, 4}
	g := ConvGeom{KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	oh, ow := g.OutSize(2, 2)
	dst := make([]int8, 9*oh*ow)
	pad := int8(-5)
	Im2ColSliceInt8(dst, img, 1, 2, 2, g, pad)

	// Cross-check against the fp32 lowering of the same image with the
	// pad value subtracted out: wherever fp32 produced an implicit zero,
	// the int8 lowering must hold pad.
	fimg := []float32{1, 2, 3, 4}
	fdst := make([]float32, 9*oh*ow)
	Im2ColSlice(fdst, fimg, 1, 2, 2, g)
	padCount := 0
	for i := range dst {
		inBounds := false
		for _, v := range fimg {
			if fdst[i] == v {
				inBounds = true
				break
			}
		}
		if inBounds && fdst[i] != 0 {
			if float32(dst[i]) != fdst[i] {
				t.Fatalf("dst[%d] = %d, want %v", i, dst[i], fdst[i])
			}
		} else if dst[i] != pad {
			t.Fatalf("padded dst[%d] = %d, want zero-point %d", i, dst[i], pad)
		} else {
			padCount++
		}
	}
	if padCount == 0 {
		t.Fatal("expected some padded taps")
	}
}

func TestArenaIntScratchZeroAlloc(t *testing.T) {
	a := NewArena()
	// Warm up to steady-state capacity.
	a.Reset()
	_ = a.Int8(1024)
	_ = a.Int8(64)
	_ = a.Int64(512)
	allocs := testing.AllocsPerRun(50, func() {
		a.Reset()
		s8 := a.Int8(1024)
		s8b := a.Int8(64)
		s64 := a.Int64(512)
		s8[0], s8b[0], s64[0] = 1, 2, 3
	})
	if allocs != 0 {
		t.Fatalf("steady-state int scratch allocs = %v, want 0", allocs)
	}
	// Distinct slots within one cycle must not alias.
	a.Reset()
	x := a.Int8(8)
	y := a.Int8(8)
	x[0], y[0] = 1, 2
	if x[0] != 1 {
		t.Fatal("Int8 slots alias within a cycle")
	}
}
