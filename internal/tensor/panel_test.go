package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The micro-kernels are accepted on one property: whatever path computes
// an output element — the assembly, the scalar loops, any column band —
// it holds the bits of that element's own chain, a rounded multiply then
// a rounded add per k, ascending from +0, then the bias add, then the
// ReLU. The oracles below spell that chain out one element at a time,
// with the explicit float32 conversion that forbids the compiler to fuse
// the multiply into the add, so they stay the definition even where the
// scalar loops do not (GOAMD64=v3 fuses those, which is why it is
// unsupported and why these tests then fail on the scalar leg).

func refPanelMul(a []float32, m, k int, b []float32, n int, bias []float32, relu bool) []float32 {
	out := make([]float32, m*n)
	for r := 0; r < m; r++ {
		for j := 0; j < n; j++ {
			var acc float32
			for kk := 0; kk < k; kk++ {
				acc += float32(a[r*k+kk] * b[kk*n+j])
			}
			out[r*n+j] = refEpilogue(acc, bias, r, relu)
		}
	}
	return out
}

func refEpilogue(acc float32, bias []float32, r int, relu bool) float32 {
	if bias != nil {
		acc += bias[r]
	}
	if relu && !(acc > 0) {
		acc = 0
	}
	return acc
}

// sameBits is bit equality, except that any NaN equals any NaN: which
// operand's payload and sign an add or multiply of two NaNs keeps is the
// instruction selector's choice, not part of the arithmetic, and nothing
// downstream can tell (ReLU zeroes a NaN, max-pool never picks one).
func sameBits(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
}

// salt overwrites a share of s with the values a kernel is likeliest to
// get wrong: NaN, ±Inf, -0 and denormals.
func salt(rng *rand.Rand, s []float32, share float64) {
	hostile := []float32{
		float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
		float32(math.Copysign(0, -1)), 0,
		math.Float32frombits(1), math.Float32frombits(0x807fffff), 1e-39, -3e-42,
	}
	for i := range s {
		if rng.Float64() < share {
			s[i] = hostile[rng.Intn(len(hostile))]
		}
	}
}

// kernelModes runs f on the scalar loops (both dispatch bools off) and
// then on each assembly width through asmLegs — every path in one
// process.
func kernelModes(t *testing.T, f func(t *testing.T)) {
	had2, had512 := useAVX2, useAVX512
	defer func() { useAVX2, useAVX512 = had2, had512 }()
	useAVX2, useAVX512 = false, false
	t.Run("scalar", f)
	asmLegs(t, f)
}

// asmLegs runs f once with the YMM kernels (useAVX2 alone) and once with
// the ZMM ones (useAVX512 too), each as a subtest that skips, naming
// what is missing, where this build or CPU lacks that width.
func asmLegs(t *testing.T, f func(t *testing.T)) {
	had2, had512 := useAVX2, useAVX512
	defer func() { useAVX2, useAVX512 = had2, had512 }()
	for _, leg := range []struct {
		name string
		zmm  bool
	}{{"avx2", false}, {"avx512", true}} {
		t.Run(leg.name, func(t *testing.T) {
			if !haveAVX2() {
				t.Skip("no AVX2 kernels in this build or on this CPU")
			}
			if m := avx512Missing(); leg.zmm && m != "" {
				t.Skip("no ZMM kernels: this CPU or OS does not report " + m)
			}
			useAVX2, useAVX512 = true, leg.zmm
			f(t)
		})
	}
}

func TestPanelKernelMatchesReferenceBitwise(t *testing.T) {
	kernelModes(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(2104))
		const sentinel = float32(-777)
		seenK := map[int]bool{}
		for m := 1; m <= 9; m++ {
			for n := 1; n <= 70; n++ {
				k := (m*31 + n*7) % 81
				seenK[k] = true
				a := randSlice(rng, m*k)
				b := randSlice(rng, k*n)
				bias := randSlice(rng, m)
				if (m+n)%3 == 0 {
					salt(rng, a, 0.03)
					salt(rng, b, 0.03)
					salt(rng, bias, 0.2)
				}
				at := New(m, k)
				copy(at.data, a)
				p := PackMatrix(at)
				for flags := 0; flags < 4; flags++ {
					relu := flags&1 != 0
					var bs []float32
					if flags&2 != 0 {
						bs = bias
					}
					want := refPanelMul(a, m, k, b, n, bs, relu)
					got := make([]float32, m*n)
					p.MulPanelsInto(got, b, n, bs, relu, 0, p.Panels())
					for i := range want {
						if !sameBits(got[i], want[i]) {
							t.Fatalf("m=%d k=%d n=%d bias=%v relu=%v: element %d = %x, want %x",
								m, k, n, bs != nil, relu, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
						}
					}
					// Column bands starting at every offset, of the widths
					// around the kernel's block: narrower than one block, one
					// block exactly, one block and a ragged tail, and to the
					// end of the row. Nothing outside the band may be written.
					// (On three panel shapes and one flag combination per
					// shape, to keep the sweep in seconds under -race.)
					if !(m == 3 || m == 4 || m == 9) || flags != (m+n)&3 {
						continue
					}
					for c0 := 0; c0 < n; c0++ {
						for _, c1 := range []int{c0 + 5, c0 + kernelCols, c0 + kernelCols + 1, n} {
							c1 = min(c1, n)
							for i := range got {
								got[i] = sentinel
							}
							p.MulPanelsColsInto(got, b, n, bs, relu, 0, p.Panels(), c0, c1)
							for i := range got {
								if j := i % n; j >= c0 && j < c1 {
									if !sameBits(got[i], want[i]) {
										t.Fatalf("m=%d k=%d n=%d cols [%d,%d): element %d = %x, want %x",
											m, k, n, c0, c1, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
									}
								} else if got[i] != sentinel {
									t.Fatalf("m=%d k=%d n=%d cols [%d,%d): element %d outside the band was written", m, k, n, c0, c1, i)
								}
							}
						}
					}
				}
			}
		}
		for k := 0; k <= 80; k++ {
			if !seenK[k] {
				t.Fatalf("k=%d never exercised", k)
			}
		}
	})
}

// transposed returns the cols×rows transpose of the rows×cols
// row-major s.
func transposed(s []float32, rows, cols int) []float32 {
	t := make([]float32, len(s))
	for r := 0; r < rows; r++ {
		for c, v := range s[r*cols : (r+1)*cols] {
			t[c*rows+r] = v
		}
	}
	return t
}

// The FC entry, and under it the one-sample and multi-sample kernels,
// must give what the reference chain defines for every sample of every
// batch 1..40 (each tile, each tail) and every output of 1..41-row
// layers (partial 16-row groups) and of a few with four groups and
// more (the 64-row tile, and it followed by 16-row ones), over a group
// range from any group and writing nothing outside it. The reference
// computes W·xᵀ; the entry writes its transpose.
func TestDotPanelsMatchesReferenceBitwise(t *testing.T) {
	var ms []int
	for m := 1; m <= 41; m++ {
		ms = append(ms, m)
	}
	ms = append(ms, 64, 71, 80, 137)
	kernelModes(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(2105))
		const sentinel = float32(-777)
		for _, m := range ms {
			for n := 1; n <= 40; n++ {
				k := (m*31 + n*7) % 81
				w := randSlice(rng, m*k)
				x := randSlice(rng, n*k)
				bias := randSlice(rng, m)
				if (m+n)%3 == 0 {
					salt(rng, w, 0.03)
					salt(rng, x, 0.03)
					salt(rng, bias, 0.2)
				}
				wt := New(m, k)
				copy(wt.data, w)
				p := PackFC(wt)
				flags := (m + n) & 3
				relu := flags&1 != 0
				var bs []float32
				if flags&2 != 0 {
					bs = bias
				}
				want := transposed(refPanelMul(w, m, k, transposed(x, n, k), n, bs, relu), m, n)
				for g := 0; g <= p.Groups(); g++ {
					got := make([]float32, n*m)
					for i := range got {
						got[i] = sentinel
					}
					p.MulTransInto(got, x, n, bs, relu, 0, g)
					for i, v := range got {
						if i%m >= g*fcGroup && v != sentinel {
							t.Fatalf("m=%d k=%d n=%d groups [0,%d): output %d outside the range was written", m, k, n, g, i)
						}
					}
					p.MulTransInto(got, x, n, bs, relu, g, p.Groups())
					for i := range want {
						if !sameBits(got[i], want[i]) {
							t.Fatalf("m=%d k=%d n=%d split at group %d bias=%v relu=%v: sample %d output %d = %x, want %x",
								m, k, n, g, bs != nil, relu, i/m, i%m, math.Float32bits(got[i]), math.Float32bits(want[i]))
						}
					}
				}
			}
		}
	})
}

// The assembly does no bounds checking, so a slice too short for the call
// must panic in the Go wrapper before the kernel runs — and the kernel
// must not have written by then. Run under -race, checkptr would also
// trip on an out-of-range pointer built on the way.
func TestPanelKernelShortSlicesPanic(t *testing.T) { asmLegs(t, testPanelKernelShortSlicesPanic) }

func testPanelKernelShortSlicesPanic(t *testing.T) {
	const m, k, n = 8, 6, 40
	rng := rand.New(rand.NewSource(2106))
	a := New(m, k)
	copy(a.data, randSlice(rng, m*k))
	p := PackMatrix(a)
	b := randSlice(rng, k*n)
	bias := randSlice(rng, m)
	const sentinel = float32(-777)
	dst := make([]float32, m*n)

	mustPanic := func(name string, f func()) {
		t.Helper()
		for i := range dst {
			dst[i] = sentinel
		}
		defer func() {
			t.Helper()
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
			for i, v := range dst {
				if v != sentinel {
					t.Fatalf("%s: dst[%d] written before the panic", name, i)
				}
			}
		}()
		f()
	}

	// Through the exported entry: a right-hand side one element short of
	// its last row, which no Go slice expression checks on the way in.
	mustPanic("short b", func() { p.MulPanelsInto(dst, b[:len(b)-1], n, bias, true, 0, p.Panels()) })
	mustPanic("short b, band", func() { p.MulPanelsColsInto(dst, b[:(k-1)*n+20], n, nil, false, 0, 1, 4, 21) })
	mustPanic("empty b", func() { p.MulPanelsInto(dst, nil, n, nil, false, 0, 1) })

	// The wrapper itself, one argument wrong at a time.
	pan := p.panels[:panelRows*k]
	c := dst[:panelRows*n]
	for _, tc := range []struct {
		name            string
		c, pan, b, bias []float32
		n, k, c0, c1    int
	}{
		{"short c", c[:3*n+39], pan, b, bias[:4], n, k, 0, n},
		{"short pan", c, pan[:4*k-1], b, bias[:4], n, k, 0, n},
		{"short b", c, pan, b[:len(b)-1], bias[:4], n, k, 0, n},
		{"short bias", c, pan, b, bias[:3], n, k, 0, n},
		{"band under one block", c, pan, b, nil, n, k, 3, 18},
		{"band past the row", c, pan, b, nil, n, k, 30, n + 1},
		{"negative c0", c, pan, b, nil, n, k, -1, 20},
		{"negative k", c, pan, b, nil, n, -1, 0, n},
		{"n beyond c", c, pan, b, nil, 1 << 62, k, 0, 16},
		{"k beyond pan", c, pan, b, nil, n, 1 << 61, 0, n},
	} {
		mustPanic("mulPanel4Asm "+tc.name, func() { mulPanel4Asm(tc.c, tc.pan, tc.b, tc.bias, tc.n, tc.k, tc.c0, tc.c1, true) })
	}
}

// The FC wrappers hold the same contract: a slice too short for the
// kernel panics before it runs, with nothing written.
func TestFCKernelShortSlicesPanic(t *testing.T) {
	asmLegs(t, func(t *testing.T) {
		const k, groups, tile = 6, 2, 16
		rng := rand.New(rand.NewSource(2110))
		pan := randSlice(rng, groups*fcGroup*k)
		x := randSlice(rng, tile*k)
		bias := randSlice(rng, groups*fcGroup)
		const sentinel = float32(-777)
		y := make([]float32, tile*groups*fcGroup)
		mustPanic := func(name string, f func()) {
			t.Helper()
			for i := range y {
				y[i] = sentinel
			}
			defer func() {
				t.Helper()
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
				for i, v := range y {
					if v != sentinel {
						t.Fatalf("%s: y[%d] written before the panic", name, i)
					}
				}
			}()
			f()
		}
		rows := y[:groups*fcGroup]
		for _, tc := range []struct {
			name            string
			y, pan, x, bias []float32
			k, groups       int
		}{
			{"short y", rows[:groups*fcGroup-1], pan, x, bias, k, groups},
			{"short pan", rows, pan[:groups*fcGroup*k-1], x, bias, k, groups},
			{"short x", rows, pan, x[:k-1], bias, k, groups},
			{"short bias", rows, pan, x, bias[:groups*fcGroup-1], k, groups},
			{"negative k", rows, pan, x, nil, -1, groups},
			{"no groups", rows, pan, x, nil, k, 0},
			{"groups beyond y", rows, pan, x, nil, k, 1 << 60},
			{"k beyond pan", rows, pan, x, nil, 1 << 61, groups},
		} {
			mustPanic("fcRowsAsm "+tc.name, func() { fcRowsAsm(tc.y, tc.pan, tc.x, tc.bias, tc.k, tc.groups, true) })
		}
		ystride := groups * fcGroup
		g0 := pan[:fcGroup*k]
		for _, tc := range []struct {
			name             string
			y, pan, x, bias  []float32
			k, ystride, tile int
		}{
			{"short y", y[:(tile-1)*ystride+fcGroup-1], g0, x, bias, k, ystride, tile},
			{"short pan", y, g0[:fcGroup*k-1], x, bias, k, ystride, tile},
			{"short x", y, g0, x[:tile*k-1], bias, k, ystride, tile},
			{"short bias", y, g0, x, bias[:fcGroup-1], k, ystride, tile},
			{"negative k", y, g0, x, nil, -1, ystride, tile},
			{"stride under a group", y, g0, x, nil, k, fcGroup - 1, tile},
			{"stride beyond y", y, g0, x, nil, k, 1 << 62, tile},
			{"k beyond pan", y, g0, x, nil, 1 << 61, ystride, tile},
			{"no such tile", y, g0, x, nil, k, ystride, 3},
		} {
			mustPanic("fcTileAsm "+tc.name, func() { fcTileAsm(tc.y, tc.pan, tc.x, tc.bias, tc.k, tc.ystride, tc.tile, true) })
		}
		wt := New(groups*fcGroup, k)
		copy(wt.data, randSlice(rng, groups*fcGroup*k))
		p := PackFC(wt)
		mustPanic("short x through MulTransInto", func() { p.MulTransInto(y, x[:tile*k-1], tile, nil, false, 0, groups) })
		mustPanic("short y through MulTransInto", func() { p.MulTransInto(y[:len(y)-1], x, tile, nil, false, 0, groups) })
		mustPanic("short bias through MulTransInto", func() { p.MulTransInto(y, x, tile, bias[:groups*fcGroup-1], false, 0, groups) })
	})
}

// im2colElementwise is the per-element lowering the row-copy form
// replaced, kept as its oracle: every output element decides for itself
// whether it reads the image or the padding.
func im2colElementwise[T float32 | int8](dst, img []T, c, h, w int, g ConvGeom, oy0, oy1 int, pad T) {
	oh, ow := g.OutSize(h, w)
	ncols := oh * ow
	for ch := 0; ch < c; ch++ {
		for kh := 0; kh < g.KH; kh++ {
			for kw := 0; kw < g.KW; kw++ {
				row := ((ch*g.KH+kh)*g.KW + kw) * ncols
				for oy := max(oy0, 0); oy < min(oy1, oh); oy++ {
					iy := oy*g.StrideH - g.PadH + kh
					for ox := 0; ox < ow; ox++ {
						ix := ox*g.StrideW - g.PadW + kw
						v := pad
						if iy >= 0 && iy < h && ix >= 0 && ix < w {
							v = img[(ch*h+iy)*w+ix]
						}
						dst[row+oy*ow+ox] = v
					}
				}
			}
		}
	}
}

func TestIm2ColRowCopiesMatchElementwise(t *testing.T) {
	rng := rand.New(rand.NewSource(2107))
	cases := 0
	for pad := 0; pad <= 2; pad++ {
		for kern := 1; kern <= 5; kern++ {
			for stride := 1; stride <= 2; stride++ {
				for _, hw := range [][2]int{{1, 1}, {2, 3}, {3, 2}, {4, 4}, {5, 9}, {11, 7}} {
					c, h, w := 3, hw[0], hw[1]
					g := ConvGeom{KH: kern, KW: kern, StrideH: stride, StrideW: stride, PadH: pad, PadW: pad}
					if g.Validate(h, w) != nil {
						continue // includes every w < kernel the padding does not rescue
					}
					cases++
					name := fmt.Sprintf("pad=%d kernel=%d stride=%d %dx%d", pad, kern, stride, h, w)
					oh, ow := g.OutSize(h, w)
					size := c * kern * kern * oh * ow

					img := randSlice(rng, c*h*w)
					want := make([]float32, size)
					im2colElementwise(want, img, c, h, w, g, 0, oh, 0)
					got := randSlice(rng, size) // stale data, as an arena hands out
					Im2ColSlice(got, img, c, h, w, g)
					for i := range want {
						if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
							t.Fatalf("%s: fp32 element %d = %v, want %v", name, i, got[i], want[i])
						}
					}
					// A row band writes its own columns and no others.
					const sentinel = float32(-777)
					oy0, oy1 := oh/3, oh/3+max(oh/2, 1)
					for i := range got {
						got[i], want[i] = sentinel, sentinel
					}
					im2colElementwise(want, img, c, h, w, g, oy0, oy1, 0)
					Im2ColSliceRows(got, img, c, h, w, g, oy0, oy1)
					for i := range want {
						if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
							t.Fatalf("%s rows [%d,%d): fp32 element %d = %v, want %v", name, oy0, oy1, i, got[i], want[i])
						}
					}

					img8 := make([]int8, c*h*w)
					for i := range img8 {
						img8[i] = int8(rng.Intn(256) - 128)
					}
					want8 := make([]int8, size)
					im2colElementwise(want8, img8, c, h, w, g, 0, oh, -7)
					got8 := make([]int8, size)
					for i := range got8 {
						got8[i] = 99
					}
					Im2ColSliceInt8(got8, img8, c, h, w, g, -7)
					for i := range want8 {
						if got8[i] != want8[i] {
							t.Fatalf("%s: int8 element %d = %d, want %d", name, i, got8[i], want8[i])
						}
					}
				}
			}
		}
	}
	if cases < 100 {
		t.Fatalf("only %d geometries were valid; the sweep lost its coverage", cases)
	}
}

// BenchmarkPanelKernel times the fp32 panel GEMM on the bench net's
// shapes (the ÷16 SPP-Net #2 on 40×40 clips: the three stride-1 convs'
// rows × terms × flat positions, and fc0 at batch 16) on each leg, so a
// ZMM form is kept only where it beats the YMM one.
func BenchmarkPanelKernel(b *testing.B) {
	rng := rand.New(rand.NewSource(2108))
	for _, s := range []struct {
		name    string
		m, k, n int
	}{{"conv0", 4, 36, 1678}, {"conv1", 8, 36, 438}, {"conv2", 16, 72, 118}, {"fc0b16", 256, 480, 16}} {
		a := New(s.m, s.k)
		copy(a.data, randSlice(rng, s.m*s.k))
		p := PackMatrix(a)
		rhs := randSlice(rng, s.k*s.n)
		bias := randSlice(rng, s.m)
		dst := make([]float32, s.m*s.n)
		benchLegs(b, s.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p.MulPanelsInto(dst, rhs, s.n, bias, true, 0, p.Panels())
			}
			b.ReportMetric(float64(2*s.m*s.k*s.n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}

// benchLegs runs f as sub-benchmarks name/avx2 and name/avx512, the
// latter only where the CPU has the ZMM kernels.
func benchLegs(b *testing.B, name string, f func(b *testing.B)) {
	had2, had512 := useAVX2, useAVX512
	defer func() { useAVX2, useAVX512 = had2, had512 }()
	if !had2 {
		b.Skip("no AVX2 kernels in this build or on this CPU")
	}
	useAVX512 = false
	b.Run(name+"/avx2", f)
	if had512 {
		useAVX512 = true
		b.Run(name+"/avx512", f)
	}
}

// BenchmarkFCKernel times the FC entry on fc0 of the bench net (256
// outputs × 480 inputs, ReLU fused) at batches 1, 8, 16 and 17 — the
// one-sample tile, it repeated, the multi-sample tile, and that tile
// plus one — on each leg.
func BenchmarkFCKernel(b *testing.B) {
	rng := rand.New(rand.NewSource(2109))
	w := New(256, 480)
	copy(w.data, randSlice(rng, 256*480))
	p := PackFC(w)
	bias := randSlice(rng, 256)
	for _, n := range []int{1, 8, 16, 17} {
		x := randSlice(rng, n*480)
		y := make([]float32, n*256)
		benchLegs(b, fmt.Sprintf("fc0b%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p.MulTransInto(y, x, n, bias, true, 0, p.Groups())
			}
			b.ReportMetric(float64(2*256*480*n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}
