package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// The int8 kernels are accepted on the same property as the fp32 ones
// (panel_test.go): whichever path computes an output — the assembly, the
// scalar packed-lane loops — it holds the bits of the plain definition.
// Here that is an int32 sum over the row-major codes (exact under
// PackInt8's depth bound, so no order to pin), minus zp·rowSum, through
// one conversion, one rounded multiply and one rounded add, then the
// ReLU. The oracle below never sees a packed layout. The two entries
// differ in one bit: without a bias MulPanelsInto still adds +0 (so a -0
// product is stored as +0) and DotPanelInto adds nothing — dot says
// which.

func refInt8Mul(q []int8, m, k int, b []int8, n int, zp int32, outScale, bias []float32, relu, dot bool) []float32 {
	out := make([]float32, m*n)
	for r := 0; r < m; r++ {
		var rowSum int32
		for kk := 0; kk < k; kk++ {
			rowSum += int32(q[r*k+kk])
		}
		var bv float32
		if bias != nil {
			bv = bias[r]
		}
		for j := 0; j < n; j++ {
			var acc int32
			for kk := 0; kk < k; kk++ {
				acc += int32(q[r*k+kk]) * int32(b[kk*n+j])
			}
			v := float32(float32(acc-zp*rowSum) * outScale[r])
			if bias != nil || !dot {
				v += bv
			}
			if relu && !(v > 0) {
				v = 0
			}
			out[r*n+j] = v
		}
	}
	return out
}

func randCodes(rng *rand.Rand, n int, lo int) []int8 {
	s := make([]int8, n)
	for i := range s {
		s[i] = int8(lo + rng.Intn(128-lo))
	}
	return s
}

// int8Case builds one problem: weight codes in [-127, 127], activation
// codes in [-128, 127], or — extreme — every activation -128 against
// rows of all +127 or all -127, the largest accumulators the depth
// allows; hostile swaps some output scales for NaN, ±Inf, 0 and a
// negative.
func int8Case(rng *rand.Rand, m, k, n int, extreme, hostile bool) (q, b []int8, outScale, bias []float32) {
	q, b = randCodes(rng, m*k, -127), randCodes(rng, k*n, -128)
	if extreme {
		for i := range b {
			b[i] = -128
		}
		for i := range q {
			q[i] = int8(127 - 254*((i/max(k, 1))&1))
		}
	}
	outScale, bias = make([]float32, m), randSlice(rng, m)
	for r := range outScale {
		outScale[r] = rng.Float32() * 0.01
	}
	if hostile {
		bad := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), 0, -0.003}
		for r := range outScale {
			if rng.Intn(2) == 0 {
				outScale[r] = bad[rng.Intn(len(bad))]
			}
		}
		salt(rng, bias, 0.3)
	}
	return q, b, outScale, bias
}

func TestInt8PanelKernelMatchesReferenceBitwise(t *testing.T) {
	kernelModes(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(2201))
		const sentinel = float32(-777)
		seenK, seenZP := map[int]bool{}, map[int32]bool{}
		for m := 1; m <= 9; m++ {
			for n := 1; n <= 70; n++ {
				k := (m*31 + n*7) % 81
				zp := int32((m*37+n*11)%256 - 128)
				switch {
				case m == 4 && n == 33:
					zp = -128
				case m == 8 && n == 17:
					zp = 127
				}
				seenK[k], seenZP[zp] = true, true
				q, b, outScale, bias := int8Case(rng, m, k, n, (m+n)%3 == 0, n%10 == 0)
				p := PackInt8(q, m, k)
				acc := make([]int64, 2*n)
				for flags := 0; flags < 4; flags++ {
					relu := flags&1 != 0
					var bs []float32
					if flags&2 != 0 {
						bs = bias
					}
					want := refInt8Mul(q, m, k, b, n, zp, outScale, bs, relu, false)
					// One call over all panels, then the same rows from two
					// calls split at a panel boundary; the slack past m·n
					// must stay untouched either way.
					for _, split := range []int{0, (m + n) % (p.Panels() + 1)} {
						got := make([]float32, m*n+kernelCols)
						for i := range got {
							got[i] = sentinel
						}
						p.MulPanelsInto(got, b, n, acc, zp, outScale, bs, relu, 0, split)
						p.MulPanelsInto(got, b, n, acc, zp, outScale, bs, relu, split, p.Panels())
						for i, w := range want {
							if !sameBits(got[i], w) {
								t.Fatalf("m=%d k=%d n=%d zp=%d bias=%v relu=%v split=%d: element %d = %x, want %x",
									m, k, n, zp, bs != nil, relu, split, i, math.Float32bits(got[i]), math.Float32bits(w))
							}
						}
						for i := m * n; i < len(got); i++ {
							if got[i] != sentinel {
								t.Fatalf("m=%d k=%d n=%d: element %d past the output was written", m, k, n, i)
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
		if !seenZP[-128] || !seenZP[127] || len(seenZP) < 200 {
			t.Fatalf("zero points cover %d values (-128: %v, 127: %v)", len(seenZP), seenZP[-128], seenZP[127])
		}
	})
}

func TestInt8DotPanelMatchesReferenceBitwise(t *testing.T) {
	ks := []int{64, 333, 336, 1344}
	for k := 0; k <= 17; k++ {
		ks = append(ks, k)
	}
	kernelModes(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(2202))
		for _, k := range ks {
			for m := 1; m <= 9; m++ {
				zp := int32(rng.Intn(256) - 128)
				q, x, outScale, bias := int8Case(rng, m, k, 1, (m+k)%3 == 0, m == 7)
				p := PackInt8(q, m, k)
				for flags := 0; flags < 4; flags++ {
					relu := flags&1 != 0
					var bs []float32
					if flags&2 != 0 {
						bs = bias
					}
					want := refInt8Mul(q, m, k, x, 1, zp, outScale, bs, relu, true)
					got := make([]float32, m)
					for pi := 0; pi < p.Panels(); pi++ {
						p.DotPanelInto(got, x, pi, zp, outScale, bs, relu)
					}
					for i, w := range want {
						if !sameBits(got[i], w) {
							t.Fatalf("m=%d k=%d zp=%d bias=%v relu=%v: output %d = %x, want %x",
								m, k, zp, bs != nil, relu, i, math.Float32bits(got[i]), math.Float32bits(w))
						}
					}
				}
			}
		}
	})
}

// refQuantize is QuantizeSlice's map spelled with branches and
// roundAwayInt32, for every product that is not NaN. What a NaN converts
// to is the platform's choice (Go leaves it implementation-defined), so
// there the scalar loop is the definition and the kernel is held to it.
func refQuantize(v, invScale float32, zp int32) int8 {
	f := float32(v * invScale)
	if f < -256 {
		f = -256
	} else if f > 256 {
		f = 256
	}
	return int8(min(max(roundAwayInt32(f)+zp, -128), 127))
}

func TestQuantizeSliceMatchesReference(t *testing.T) {
	hostile := []float32{
		float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), 0, float32(math.Copysign(0, -1)),
		math.Float32frombits(1), math.Float32frombits(0x807fffff), 1e-39, -3e-42,
		256, -256, 255.5, -255.5, 1e30, -1e30, 0.5, -0.5, 1.5, -1.5, 2.5, -2.5, 126.5, -127.5, 127.5, -128.5,
		0.49999997, -0.49999997,
	}
	rng := rand.New(rand.NewSource(2203))
	const sentinel = int8(99)
	type quantCase struct {
		src      []float32
		invScale float32
		zp       int32
		scalar   []int8
	}
	var cases []*quantCase
	for n := 0; n <= 70; n++ {
		for _, invScale := range []float32{1, rng.Float32() * 50, float32(math.Inf(1)), 0} {
			src := make([]float32, n)
			for i := range src {
				if src[i] = float32(rng.NormFloat64()) * 40; rng.Intn(3) == 0 {
					src[i] = hostile[rng.Intn(len(hostile))]
				}
			}
			cases = append(cases, &quantCase{src: src, invScale: invScale, zp: int32(rng.Intn(256) - 128)})
		}
	}
	kernelModes(t, func(t *testing.T) {
		for _, c := range cases {
			n := len(c.src)
			got := make([]int8, n+40)
			for i := range got {
				got[i] = sentinel
			}
			QuantizeSlice(got, c.src, c.invScale, c.zp)
			for i, v := range c.src {
				if f := v * c.invScale; f == f && got[i] != refQuantize(v, c.invScale, c.zp) {
					t.Fatalf("n=%d invScale=%v zp=%d: code %d of %v (%x) = %d, want %d",
						n, c.invScale, c.zp, i, v, math.Float32bits(v), got[i], refQuantize(v, c.invScale, c.zp))
				}
			}
			for i := n; i < len(got); i++ {
				if got[i] != sentinel {
					t.Fatalf("n=%d: dst[%d] past len(src) was written", n, i)
				}
			}
			if !useAVX2 {
				c.scalar = got
				continue
			}
			for i := range got {
				if got[i] != c.scalar[i] {
					t.Fatalf("n=%d invScale=%v zp=%d: code %d of %v = %d, the scalar loop gives %d",
						n, c.invScale, c.zp, i, c.src[i], got[i], c.scalar[i])
				}
			}
		}
	})
}

// The wrappers must refuse, before any store, a call whose slices are
// too short for what the kernel would touch (run under -race, checkptr
// would also trip on an out-of-range pointer built on the way).
func TestInt8KernelShortSlicesPanic(t *testing.T) { asmLegs(t, testInt8KernelShortSlicesPanic) }

func testInt8KernelShortSlicesPanic(t *testing.T) {
	const m, k, n = 8, 7, 40
	rng := rand.New(rand.NewSource(2204))
	q, b, outScale, bias := int8Case(rng, m, k, n, false, false)
	p := PackInt8(q, m, k)
	acc := make([]int64, 2*n)
	const sentinel = float32(-777)
	dst := make([]float32, m*n)
	codes := make([]int8, 64)

	mustPanic := func(name string, f func()) {
		t.Helper()
		for i := range dst {
			dst[i] = sentinel
		}
		for i := range codes {
			codes[i] = 99
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
			for i, v := range codes {
				if v != 99 {
					t.Fatalf("%s: codes[%d] written before the panic", name, i)
				}
			}
		}()
		f()
	}

	mustPanic("short b", func() { p.MulPanelsInto(dst, b[:len(b)-1], n, acc, 3, outScale, bias, true, 0, 2) })
	mustPanic("empty b", func() { p.MulPanelsInto(dst, nil, n, acc, 3, outScale, nil, false, 0, 1) })
	mustPanic("short outScale", func() { p.MulPanelsInto(dst, b, n, acc, 3, outScale[:3], bias, true, 0, 1) })
	mustPanic("short bias", func() { p.MulPanelsInto(dst, b, n, acc, 3, outScale, bias[:7], true, 1, 2) })
	mustPanic("short dst", func() { p.mulPanelAsm(dst[:4*n-1], b, n, 0, 3, outScale, bias, true) })
	mustPanic("n beyond c", func() { p.mulPanelAsm(dst[:4*n], b, 1<<61, 0, 3, outScale, bias, true) })
	mustPanic("n under one block", func() { p.mulPanelAsm(dst[:4*n], b, kernelCols-1, 0, 3, outScale, bias, true) })
	mustPanic("panel past the matrix", func() { p.mulPanelAsm(dst[:4*n], b, n, 2, 3, outScale, bias, true) })
	mustPanic("negative panel", func() { p.mulPanelAsm(dst[:4*n], b, n, -1, 3, outScale, bias, true) })

	tail := PackInt8(q[:6*k], 6, k)
	mustPanic("partial panel", func() { tail.mulPanelAsm(dst[:4*n], b, n, 1, 3, outScale, bias, true) })

	// A matrix packed while the dispatch bool was off has no pair layout.
	useAVX2 = false
	bare := PackInt8(q, m, k)
	useAVX2 = true
	mustPanic("no pair layout", func() { bare.MulPanelsInto(dst, b, n, acc, 3, outScale, bias, true, 0, 1) })
	mustPanic("no pair layout, dot", func() { bare.DotPanelInto(dst, b[:k], 0, 3, outScale, bias, true) })

	mustPanic("short x", func() { p.DotPanelInto(dst, b[:k-1:k-1], 0, 3, outScale, bias, true) })
	mustPanic("dot panel past the matrix", func() { p.dotPanelAsm(new([panelRows]int32), b[:k], 2) })

	src := randSlice(rng, 40)
	mustPanic("quantize, short dst", func() { QuantizeSlice(codes[:39], src, 10, 3) })
	mustPanic("quantize, empty dst", func() { QuantizeSlice(nil, src, 10, 3) })
}

// The depth bound must cover activation code -128: k·127·128 < 2³¹.
func TestPackInt8DepthBound(t *testing.T) {
	const bound = (1<<31 - 1) / (127 * 128)
	if maxInt8GemmK != bound {
		t.Fatalf("maxInt8GemmK = %d, want %d", maxInt8GemmK, bound)
	}
	q := make([]int8, bound+1)
	for i := range q {
		q[i] = 127
	}
	// The extreme column: every activation -128 against a row of +127.
	x := make([]int8, bound)
	for i := range x {
		x[i] = -128
	}
	kernelModes(t, func(t *testing.T) {
		p := PackInt8(q[:bound], 1, bound)
		got := make([]float32, 1)
		p.DotPanelInto(got, x, 0, 0, []float32{1}, nil, false)
		if want := float32(-bound * 127 * 128); got[0] != want {
			t.Fatalf("extreme dot at the bound = %v, want %v", got[0], want)
		}
	})
	defer func() {
		if recover() == nil {
			t.Fatal("PackInt8 accepted a reduction depth past the int32 bound")
		}
	}()
	PackInt8(q, 1, bound+1)
}
