package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// flatConv is a stride-1 convolution the way the serving block runs it:
// border, interior, offset table, one MulPanelFlat per panel into a
// strided scratch, rows compacted into the dense outC×(oh·ow) result.
// The scratch arrives salted and the padded buffer full of NaN, as an
// arena could hand them out.
func flatConv(rng *rand.Rand, img []float32, c, h, w int, g ConvGeom, p *Packed, bias []float32, relu bool) []float32 {
	oh, ow := g.OutSize(h, w)
	hp, wp := h+2*g.PadH, w+2*g.PadW
	padded := make([]float32, PaddedLen(c, h, w, g.PadH, g.PadW))
	for i := range padded {
		padded[i] = float32(math.NaN())
	}
	PadBorder(padded, c, h, w, g.PadH, g.PadW)
	PadInterior(padded, img, c, h, w, g.PadH, g.PadW)
	off := FlatOffsets(nil, c, hp, wp, g.KH, g.KW)
	n := oh * wp
	nq := n - (wp - ow)
	out := make([]float32, p.Rows()*oh*ow)
	strided := randSlice(rng, panelRows*n)
	for pi := 0; pi < p.Panels(); pi++ {
		p.MulPanelFlat(strided, padded, off, n, nq, bias, relu, pi)
		for r := 0; r < min(panelRows, p.Rows()-pi*panelRows); r++ {
			for oy := 0; oy < oh; oy++ {
				copy(out[((pi*panelRows+r)*oh+oy)*ow:][:ow], strided[r*n+oy*wp:])
			}
		}
	}
	return out
}

// The flat-shifted convolution must give, bit for bit, what the lowered
// route it replaces gives — Im2ColSlice then MulPanelsInto — on every
// stride-1 geometry: "valid", "same" and over-padded, kernels 1 to 5,
// partial panels, outputs narrower than one kernel block, odd and even
// extents, and inputs holding NaN, ±Inf, ±0 and denormals; with the
// micro-kernel and on the scalar loops.
func TestFlatConvMatchesLoweredBitwise(t *testing.T) {
	kernelModes(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(2401))
		cases, blocks := 0, 0
		for _, kern := range []int{1, 3, 5} {
			for pad := 0; pad <= 2; pad++ {
				for trial := 0; trial < 24; trial++ {
					c, outC := 1+rng.Intn(9), 1+rng.Intn(13)
					h, w := 1+rng.Intn(45), 1+rng.Intn(45)
					g := ConvGeom{KH: kern, KW: kern, StrideH: 1, StrideW: 1, PadH: pad, PadW: pad}
					if trial%6 == 5 {
						g.KW, g.PadW = 1+rng.Intn(5), rng.Intn(3) // not square either
					}
					if g.Validate(h, w) != nil {
						continue
					}
					cases++
					oh, ow := g.OutSize(h, w)
					if oh*(w+2*g.PadW) >= kernelCols+w+2*g.PadW {
						blocks++
					}
					kdim := c * g.KH * g.KW
					img := randSlice(rng, c*h*w)
					wt := randSlice(rng, outC*kdim)
					bias := randSlice(rng, outC)
					if trial%3 == 0 {
						salt(rng, img, 0.05)
						salt(rng, wt, 0.02)
						salt(rng, bias, 0.2)
					}
					wm := New(outC, kdim)
					copy(wm.data, wt)
					p := PackMatrix(wm)
					cols := make([]float32, kdim*oh*ow)
					Im2ColSlice(cols, img, c, h, w, g)
					for flags := 0; flags < 4; flags++ {
						relu := flags&1 != 0
						var bs []float32
						if flags&2 != 0 {
							bs = bias
						}
						want := make([]float32, outC*oh*ow)
						p.MulPanelsInto(want, cols, oh*ow, bs, relu, 0, p.Panels())
						got := flatConv(rng, img, c, h, w, g, p, bs, relu)
						for i := range want {
							if !sameBits(got[i], want[i]) {
								t.Fatalf("%dx%dx%d -> %d, %+v, bias=%v relu=%v: output %d = %x, lowered route gives %x",
									c, h, w, outC, g, bs != nil, relu, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
							}
						}
					}
				}
			}
		}
		if cases < 150 || blocks < 100 {
			t.Fatalf("%d geometries were valid, %d of them at least one kernel block long; the sweep lost its coverage", cases, blocks)
		}
	})
}

// PadBorder must zero exactly the border and PadInterior write exactly
// the interior, whatever the buffer held.
func TestPadBorderAndInterior(t *testing.T) {
	rng := rand.New(rand.NewSource(2402))
	for _, tc := range []struct{ c, h, w, padH, padW int }{
		{1, 1, 1, 0, 0}, {1, 1, 1, 1, 1}, {3, 5, 4, 1, 1}, {2, 4, 7, 2, 0}, {2, 7, 4, 0, 2}, {4, 40, 40, 1, 1}, {1, 3, 3, 2, 3},
	} {
		hp, wp := tc.h+2*tc.padH, tc.w+2*tc.padW
		img := randSlice(rng, tc.c*tc.h*tc.w)
		const sentinel = float32(-777)
		buf := make([]float32, PaddedLen(tc.c, tc.h, tc.w, tc.padH, tc.padW))
		for i := range buf {
			buf[i] = sentinel
		}
		PadBorder(buf, tc.c, tc.h, tc.w, tc.padH, tc.padW)
		for i, v := range buf {
			y, x := i/wp%hp-tc.padH, i%wp-tc.padW
			inside := y >= 0 && y < tc.h && x >= 0 && x < tc.w
			if inside && v != sentinel {
				t.Fatalf("%+v: PadBorder wrote interior element %d", tc, i)
			}
			if !inside && math.Float32bits(v) != 0 {
				t.Fatalf("%+v: border element %d = %v after PadBorder", tc, i, v)
			}
		}
		PadInterior(buf, img, tc.c, tc.h, tc.w, tc.padH, tc.padW)
		for i, v := range buf {
			ch, y, x := i/(hp*wp), i/wp%hp-tc.padH, i%wp-tc.padW
			var want float32
			if y >= 0 && y < tc.h && x >= 0 && x < tc.w {
				want = img[(ch*tc.h+y)*tc.w+x]
			}
			if math.Float32bits(v) != math.Float32bits(want) {
				t.Fatalf("%+v: padded element %d = %v, want %v", tc, i, v, want)
			}
		}
	}
}

// The offset-table wrapper is the only bounds check the flat kernel
// gets: a table entry that would read past the source, a negative one,
// a short destination or a band under one block must panic before the
// kernel has written anything.
func TestFlatPanelKernelOutOfRangePanics(t *testing.T) {
	asmLegs(t, testFlatPanelKernelOutOfRangePanics)
}

func testFlatPanelKernelOutOfRangePanics(t *testing.T) {
	const k, n, nq = 6, 40, 36
	rng := rand.New(rand.NewSource(2403))
	pan := randSlice(rng, panelRows*k)
	src := randSlice(rng, 100)
	bias := randSlice(rng, panelRows)
	off := []int{0, 1, 2, 30, 31, 64} // 64 + 36 = len(src)
	const sentinel = float32(-777)
	dst := make([]float32, panelRows*n)
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
	mulPanel4FlatAsm(dst, pan, src, off, bias, n, 0, nq, true) // in range as given
	for _, tc := range []struct {
		name              string
		c, pan, src, bias []float32
		off               []int
		n, c0, c1         int
	}{
		{"offset past the source", dst, pan, src, bias, []int{0, 1, 2, 30, 31, 65}, n, 0, nq},
		{"offset past the source, not the last", dst, pan, src, bias, []int{0, 65, 2, 30, 31, 64}, n, 0, nq},
		{"negative offset", dst, pan, src, bias, []int{0, 1, -1, 30, 31, 64}, n, 0, nq},
		{"huge offset", dst, pan, src, bias, []int{0, 1, 2, 30, 31, math.MaxInt}, n, 0, nq},
		{"short source", dst, pan, src[:99], bias, off, n, 0, nq},
		{"source shorter than the band", dst, pan, src[:20], bias, []int{0, 0, 0, 0, 0, 0}, n, 0, nq},
		{"short c", dst[:3*n+nq-1], pan, src, bias, off, n, 0, nq},
		{"short pan", dst, pan[:4*k-1], src, bias, off, n, 0, nq},
		{"short bias", dst, pan, src, bias[:3], off, n, 0, nq},
		{"band under one block", dst, pan, src, nil, off, n, 3, 18},
		{"band past the row", dst, pan, src, nil, off, n, 30, n + 1},
		{"negative c0", dst, pan, src, nil, off, n, -1, 20},
	} {
		mustPanic(tc.name, func() { mulPanel4FlatAsm(tc.c, tc.pan, tc.src, tc.off, tc.bias, tc.n, tc.c0, tc.c1, true) })
	}
	a := New(panelRows, k)
	p := PackMatrix(a)
	mustPanic("short table through MulPanelFlat", func() { p.MulPanelFlat(dst, src, off[:k-1], n, nq, nil, false, 0) })
	mustPanic("more positions than the row through MulPanelFlat", func() { p.MulPanelFlat(dst, src, off, n, n+1, nil, false, 0) })
}

// poolRef is the generic window loop of nn.MaxPool2D specialised to
// nothing: the definition the pool kernels are held to.
func poolRef(dst, src []float32, oh, ow, stride int) {
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			best := float32(math.Inf(-1))
			for ky := 0; ky < 2; ky++ {
				for kx := 0; kx < 2; kx++ {
					if v := src[(2*oy+ky)*stride+2*ox+kx]; v > best {
						best = v
					}
				}
			}
			dst[oy*ow+ox] = best
		}
	}
}

// Every form of the 2×2 pool — the eight-wide kernel, the four-wide one,
// the scalar loop — must pick what the generic window loop picks: on
// every output width from 1 up (all three forms, every ragged tail), on
// dense and strided rows, and on planes salted with NaN (leading each
// window position), ±Inf and ±0. It must write its oh·ow outputs and
// nothing else.
func TestMaxPool2x2MatchesWindowLoop(t *testing.T) {
	kernelModes(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(2404))
		hostile := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.Copysign(0, -1)), 0}
		const sentinel = float32(-777)
		for ow := 1; ow <= 41; ow++ {
			for _, oh := range []int{0, 1, 2, 5} {
				for _, extra := range []int{0, 1, 2, 7} { // stride − 2·ow: odd widths, padded rows
					for _, share := range []float64{0, 0.3, 0.9, 1} {
						stride := 2*ow + extra
						src := randSlice(rng, 2*oh*stride)
						for i := range src {
							if rng.Float64() < share {
								src[i] = hostile[rng.Intn(len(hostile))]
							}
						}
						if oh > 0 && share > 0 {
							// A NaN in each window position of some output.
							for k := 0; k < 4; k++ {
								ox := rng.Intn(ow)
								src[k/2*stride+2*ox+k%2] = float32(math.NaN())
							}
						}
						want := make([]float32, oh*ow)
						poolRef(want, src, oh, ow, stride)
						got := make([]float32, oh*ow+3)
						for i := range got {
							got[i] = sentinel
						}
						MaxPool2x2(got, src, oh, ow, stride)
						for i := range want {
							if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
								t.Fatalf("%dx%d stride %d salted %.0f%%: output %d = %v, window loop gives %v", oh, ow, stride, 100*share, i, got[i], want[i])
							}
						}
						for i := oh * ow; i < len(got); i++ {
							if got[i] != sentinel {
								t.Fatalf("%dx%d stride %d: wrote past the output", oh, ow, stride)
							}
						}
					}
				}
			}
		}
	})
}

func TestMaxPoolKernelShortSlicesPanic(t *testing.T) { asmLegs(t, testMaxPoolKernelShortSlicesPanic) }

func testMaxPoolKernelShortSlicesPanic(t *testing.T) {
	const oh, ow, stride = 3, 9, 20
	src := make([]float32, (2*oh-1)*stride+2*ow)
	dst := make([]float32, oh*ow)
	maxPool2x2Asm(dst, src, oh, ow, stride) // in range as given
	for _, tc := range []struct {
		name           string
		dst, src       []float32
		oh, ow, stride int
	}{
		{"short src", dst, src[:len(src)-1], oh, ow, stride},
		{"short dst", dst[:len(dst)-1], src, oh, ow, stride},
		{"rows overlap", dst, src, oh, ow, 2*ow - 1},
		{"narrower than the kernel", dst, src, oh, 3, stride},
		{"negative oh", dst, src, -1, ow, stride},
		{"huge oh", dst, src, math.MaxInt / 2, ow, stride},
		{"zero stride", dst, src, oh, ow, 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", tc.name)
				}
			}()
			maxPool2x2Asm(tc.dst, tc.src, tc.oh, tc.ow, tc.stride)
		}()
	}
}

func BenchmarkMaxPool2x2(b *testing.B) {
	rng := rand.New(rand.NewSource(2405))
	for _, hw := range []int{40, 20, 10} {
		const planes = 64 // distinct planes, so the scalar compares see fresh data
		src := randSlice(rng, planes*hw*hw)
		dst := make([]float32, hw/2*(hw/2))
		benchLegs(b, fmt.Sprintf("%dx%d", hw, hw), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				MaxPool2x2(dst, src[i%planes*hw*hw:], hw/2, hw/2, hw)
			}
		})
	}
}

// binRef is one adaptive bin by its definition: -Inf, then every input
// of the rectangle in row-major order that compares greater.
func binRef(in []float32, w, y0, y1, x0, x1 int) float32 {
	best := float32(math.Inf(-1))
	for iy := y0; iy < y1; iy++ {
		for ix := x0; ix < x1; ix++ {
			if v := in[iy*w+ix]; v > best {
				best = v
			}
		}
	}
	return best
}

// MaxBins, on every leg, must store each bin's definition bit for bit —
// bins of one cell, overlapping bins, bins repeating cells (more bins
// than inputs), non-square planes, plane strides with slack — on inputs
// salted with NaN, ±Inf, ±0 and subnormals up to all-hostile, and must
// write nothing outside each plane's oh·ow outputs.
func TestMaxBinsMatchesDefinition(t *testing.T) {
	kernelModes(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(3703))
		const sentinel = float32(-777)
		bounds := func(n, out int) []int {
			var b []int
			for i := 0; i < out; i++ {
				lo := i * n / out
				b = append(b, lo, max(min((i+1)*n+out-1, n*out)/out, lo+1))
			}
			return b
		}
		for h := 1; h <= 9; h++ {
			for w := 1; w <= 9; w += 2 {
				for _, grid := range [][2]int{{1, 1}, {2, 2}, {5, 5}, {3, 7}, {12, 2}} {
					rows, cols := bounds(h, grid[0]), bounds(w, grid[1])
					oh, ow := grid[0], grid[1]
					const planes = 3
					srcStride, dstStride := h*w+h%3, oh*ow+w%2
					src := randSlice(rng, planes*srcStride)
					salt(rng, src, []float64{0, 0.3, 1}[(h+w)%3])
					dst := make([]float32, planes*dstStride+2)
					for i := range dst {
						dst[i] = sentinel
					}
					MaxBins(dst, dstStride, src, srcStride, planes, h, w, rows, cols)
					for p := 0; p < planes; p++ {
						for j := 0; j < dstStride; j++ {
							got := dst[p*dstStride+j]
							if j >= oh*ow {
								if got != sentinel {
									t.Fatalf("%dx%d into %dx%d: plane %d slack %d written", h, w, oh, ow, p, j)
								}
								continue
							}
							oy, ox := j/ow, j%ow
							want := binRef(src[p*srcStride:], w, rows[2*oy], rows[2*oy+1], cols[2*ox], cols[2*ox+1])
							if math.Float32bits(got) != math.Float32bits(want) {
								t.Fatalf("%dx%d into %dx%d: plane %d bin (%d,%d) = %x, want %x", h, w, oh, ow, p, oy, ox,
									math.Float32bits(got), math.Float32bits(want))
							}
						}
					}
				}
			}
		}
	})
}

// The kernel checks nothing, so MaxBins must refuse a call whose tables
// or slices would take it out of range, before it writes.
func TestMaxBinsOutOfRangePanics(t *testing.T) {
	kernelModes(t, func(t *testing.T) {
		const h, w = 5, 5
		src := make([]float32, 2*h*w)
		dst := make([]float32, 2*4)
		rows, cols := []int{0, 3, 2, 5}, []int{0, 3, 2, 5}
		MaxBins(dst, 4, src, h*w, 2, h, w, rows, cols) // in range as given
		for _, tc := range []struct {
			name                 string
			dst, src             []float32
			dstStride, srcStride int
			planes               int
			rows, cols           []int
		}{
			{"short src", dst, src[:2*h*w-1], 4, h * w, 2, rows, cols},
			{"short dst", dst[:7], src, 4, h * w, 2, rows, cols},
			{"row past the plane", dst, src, 4, h * w, 2, []int{0, 3, 2, 6}, cols},
			{"column past the plane", dst, src, 4, h * w, 2, rows, []int{0, 6, 2, 5}},
			{"empty bin", dst, src, 4, h * w, 2, []int{0, 3, 3, 3}, cols},
			{"negative bound", dst, src, 4, h * w, 2, []int{-1, 3, 2, 5}, cols},
			{"odd table", dst, src, 4, h * w, 2, rows[:3], cols},
			{"planes overlap", dst, src, 4, h*w - 1, 2, rows, cols},
			{"outputs overlap", dst, src, 3, h * w, 2, rows, cols},
			{"negative planes", dst, src, 4, h * w, -1, rows, cols},
			{"huge planes", dst, src, 4, h * w, math.MaxInt / 2, rows, cols},
		} {
			func() {
				for i := range dst {
					dst[i] = -777
				}
				defer func() {
					if recover() == nil {
						t.Errorf("%s: no panic", tc.name)
					}
					for i, v := range dst {
						if v != -777 {
							t.Fatalf("%s: dst[%d] written before the panic", tc.name, i)
						}
					}
				}()
				MaxBins(tc.dst, tc.dstStride, tc.src, tc.srcStride, tc.planes, h, w, tc.rows, tc.cols)
			}()
		}
	})
}
