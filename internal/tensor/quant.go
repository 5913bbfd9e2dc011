package tensor

import (
	"fmt"
	"math"
)

// This file holds the int8 counterparts of the packed inference kernels:
// symmetric per-row weight quantization, affine per-tensor activation
// quantization, an int8×int8→int32 panel GEMM with a fused
// requantize+bias+ReLU epilogue, and an int8 im2col. The panel layout is
// identical to Packed (4-row interleaved panels, zero-filled tail) so the
// quantized layers parallelize over exactly the same (sample, panel)
// index spaces as the fp32 fast path.
//
// The affine activation map is q = round(x/s) + zp with zp chosen so that
// real 0.0 is exactly representable; the GEMM accumulates raw Σ qw·qa in
// int32 and the epilogue removes the zero-point contribution with the
// precomputed per-row weight sum: x ≈ s_w[r]·s_a·(acc − zp·rowSum[r]).
// All rounding is half-away-from-zero with no data-dependent ordering,
// so the whole path is bit-exactly deterministic run-to-run.

// roundAwayInt32 rounds half away from zero. Written without math.Round
// (which would route through float64) so the mapping is the same cheap
// deterministic expression everywhere activations are quantized.
func roundAwayInt32(f float32) int32 {
	if f >= 0 {
		return int32(f + 0.5)
	}
	return -int32(-f + 0.5)
}

// QuantizeSymmetricPerRow quantizes a rank-2 rows×cols matrix with
// symmetric per-row scales: scale[r] = maxAbs(row r)/127 and
// q = round(w/scale[r]) clamped to [-127, 127]. Per-row (= per output
// channel for a reshaped conv weight) scales keep channels with small
// weight ranges from being crushed by one large-range channel. All-zero
// rows get scale 0 and all-zero codes — their outputs are exactly the
// bias, which the epilogue reproduces since outScale[r] is then 0.
func QuantizeSymmetricPerRow(a *Tensor) ([]int8, []float32) {
	if a.Rank() != 2 {
		panic(fmt.Sprintf("tensor: QuantizeSymmetricPerRow requires a rank-2 tensor, got shape %v", a.shape))
	}
	m, k := a.shape[0], a.shape[1]
	q := make([]int8, m*k)
	scales := make([]float32, m)
	for r := 0; r < m; r++ {
		row := a.data[r*k : (r+1)*k]
		var maxAbs float32
		for _, v := range row {
			if v < 0 {
				v = -v
			}
			if v > maxAbs {
				maxAbs = v
			}
		}
		if maxAbs == 0 {
			continue
		}
		s := maxAbs / 127
		scales[r] = s
		inv := 1 / s
		qrow := q[r*k : (r+1)*k]
		for i, v := range row {
			c := roundAwayInt32(v * inv)
			if c > 127 {
				c = 127
			} else if c < -127 {
				c = -127
			}
			qrow[i] = int8(c)
		}
	}
	return q, scales
}

// QuantizeSlice quantizes src into dst with the affine map
// q = clamp(round(src·invScale) + zp, -128, 127), rounding half away
// from zero. Entirely branchless: rounding is truncation of
// f + copysign(0.5, f) (identical to roundAwayInt32 for every finite f,
// including ±0), and the clamps lower to min/max instructions — no
// data-dependent branches for the predictor to miss on random
// activations, and the same bytes on every run.
func QuantizeSlice(dst []int8, src []float32, invScale float32, zp int32) {
	if useAVX2 {
		// Eight at a time in int8_amd64.s; the loop below takes the tail.
		done := quantizeAVX2(dst, src, invScale, zp)
		dst, src = dst[done:], src[done:]
	}
	for i, v := range src {
		// Pre-round clamp: float32→int32 conversion of an out-of-range
		// value is implementation-defined in Go, so bound f while it is
		// still comfortably inside int32 territory.
		f := min(max(v*invScale, -256), 256)
		half := math.Float32frombits(math.Float32bits(f)&0x80000000 | 0x3F000000)
		q := int32(f+half) + zp
		dst[i] = int8(min(max(q, -128), 127))
	}
}

// PackedInt8 is the int8 sibling of Packed: an immutable quantized weight
// matrix in 4-row interleaved panel layout,
//
//	panels[p*4k + kk*4 + r] = Q[4p+r][kk]
//
// with zero-filled rows past the matrix, plus the per-row code sums
// needed for the activation zero-point correction. Where the AVX2
// kernels run (useAVX2) the same codes are held a second time in the
// layout VPMADDWD consumes — k-pairs widened to int16, the panel's four
// rows side by side,
//
//	pairs[p*pairStride + (kk/2)*8 + r*2 + kk%2] = Q[4p+r][kk]
//
// zero past k (an odd k's last pair) and past the matrix: zeros add
// exactly nothing. Both are packed once at quantization time and shared
// by every serving replica.
type PackedInt8 struct {
	rows, cols int
	panels     []int8
	pairs      []int16
	rowSum     []int32
}

// maxInt8GemmK bounds the reduction depth so every per-row accumulator
// stays within int32: weight codes are symmetric, |q| ≤ 127
// (QuantizeSymmetricPerRow), but activation codes reach -128
// (QuantizeSlice), so the bound is k·127·128 < 2³¹. Every kernel depends
// on it for exactness — the packed int64 lanes of mulPanel4Int8, the
// int32 registers of DotPanelInto and the AVX2 kernels' VPADDD alike.
// Real conv reductions are a few thousand; this is a safety rail, not a
// practical limit.
const maxInt8GemmK = (1<<31 - 1) / (127 * 128)

// PackInt8 packs a row-major rows×cols int8 matrix into panel layout.
func PackInt8(q []int8, rows, cols int) *PackedInt8 {
	if len(q) != rows*cols {
		panic(fmt.Sprintf("tensor: PackInt8 got %d values for %dx%d", len(q), rows, cols))
	}
	if cols > maxInt8GemmK {
		panic(fmt.Sprintf("tensor: PackInt8 reduction depth %d exceeds %d (int32 accumulator bound)", cols, maxInt8GemmK))
	}
	np := (rows + panelRows - 1) / panelRows
	p := &PackedInt8{
		rows:   rows,
		cols:   cols,
		panels: make([]int8, np*panelRows*cols),
		rowSum: make([]int32, rows),
	}
	for r := 0; r < rows; r++ {
		base := (r / panelRows) * panelRows * cols
		lane := r % panelRows
		row := q[r*cols : (r+1)*cols]
		var sum int32
		for kk, v := range row {
			p.panels[base+kk*panelRows+lane] = v
			sum += int32(v)
		}
		p.rowSum[r] = sum
	}
	if useAVX2 {
		stride := p.pairStride()
		p.pairs = make([]int16, np*stride)
		for r := 0; r < rows; r++ {
			pan := p.pairs[(r/panelRows)*stride:]
			for kk, v := range q[r*cols : (r+1)*cols] {
				pan[(kk/2)*2*panelRows+(r%panelRows)*2+kk%2] = int16(v)
			}
		}
	}
	return p
}

// pairStride is the length of one panel in the pairs layout.
func (p *PackedInt8) pairStride() int { return (p.cols + 1) / 2 * 2 * panelRows }

// Rows returns the logical row count (m).
func (p *PackedInt8) Rows() int { return p.rows }

// Cols returns the logical column count (k).
func (p *PackedInt8) Cols() int { return p.cols }

// Panels returns the number of 4-row panels.
func (p *PackedInt8) Panels() int { return (p.rows + panelRows - 1) / panelRows }

// RowSum returns the per-row sum of quantized codes (for tests).
func (p *PackedInt8) RowSum(r int) int32 { return p.rowSum[r] }

// MulPanelsInto computes output rows [4·p0, min(4·p1, rows)) of the
// quantized product, dequantized into dst (rows×n float32, row-major):
//
//	dst[r][j] = outScale[r]·(Σ_k Q[r][k]·b[k][j] − zp·rowSum[r]) + bias[r]
//
// b is the cols×n int8 activation matrix (already quantized with zero
// point zp). acc is caller-provided int64 scratch of length ≥ 2·n —
// each element packs a pair of row accumulators (see mulPanel4Int8) and
// is reused panel by panel, so concurrent callers over disjoint panel
// ranges need disjoint acc slices. When relu is set, negatives (and NaN
// from a pathological outScale) clamp to zero after the bias, matching
// the fp32 epilogue's semantics. Full panels of at least kernelCols
// columns take the assembly kernel (YMM, or ZMM under useAVX512), which
// keeps its accumulators in registers and leaves acc alone; integer
// accumulation is exact, so it stores the bits the scalar loops below
// would.
func (p *PackedInt8) MulPanelsInto(dst []float32, b []int8, n int, acc []int64, zp int32, outScale, bias []float32, relu bool, p0, p1 int) {
	k := p.cols
	acc01 := acc[0:n:n]
	acc23 := acc[n : 2*n : 2*n]
	for pi := p0; pi < p1; pi++ {
		r0 := pi * panelRows
		rem := p.rows - r0
		if rem > panelRows {
			rem = panelRows
		}
		if useAVX2 && rem == panelRows && n >= kernelCols {
			p.mulPanelAsm(dst[r0*n:(r0+rem)*n], b, n, pi, zp, outScale, bias, relu)
			continue
		}
		// Tail panels run the same kernel: their dead rows are zero-filled,
		// so the extra lanes accumulate exact zeros and are never decoded.
		mulPanel4Int8(acc01, acc23, p.panels[pi*panelRows*k:(pi+1)*panelRows*k], b, n, k)
		p.dequantRows(dst[r0*n:(r0+rem)*n], acc01, acc23, r0, n, rem, zp, outScale, bias, relu)
	}
}

// mulPanel4Int8 accumulates four output rows as two packed int64 lanes:
//
//	acc01[j] = Σ_kk q[0]·b[kk][j]  +  (Σ_kk q[1]·b[kk][j]) · 2³²
//
// and likewise acc23 for rows 2/3. One 64-bit multiply drives two row
// accumulators at once: for lane values s0, s1 the packed integer
// s0 + s1·2³² times w is exactly s0·w + (s1·w)·2³², and since every lane
// sum is bounded by k·127² < 2³¹ (see PackInt8) the lanes never collide
// — the low lane's borrow is undone at decode time. Each packed multiply
// retires two multiply-accumulates, half the multiply pressure of the
// fp32 micro-kernel on operands a quarter the size, and the k-loop is
// unrolled ×4 so each accumulator load/store is amortized over 16 MACs.
// That is where the int8 speedup comes from.
func mulPanel4Int8(acc01, acc23 []int64, pan, b []int8, n, k int) {
	for i := range acc01 {
		acc01[i] = 0
	}
	for i := range acc23 {
		acc23[i] = 0
	}
	kk := 0
	for ; kk+3 < k; kk += 4 {
		q := pan[kk*panelRows : kk*panelRows+16]
		a01x := int64(q[0]) + int64(q[1])<<32
		a23x := int64(q[2]) + int64(q[3])<<32
		a01y := int64(q[4]) + int64(q[5])<<32
		a23y := int64(q[6]) + int64(q[7])<<32
		a01z := int64(q[8]) + int64(q[9])<<32
		a23z := int64(q[10]) + int64(q[11])<<32
		a01w := int64(q[12]) + int64(q[13])<<32
		a23w := int64(q[14]) + int64(q[15])<<32
		bx := b[kk*n : kk*n+n : kk*n+n]
		by := b[(kk+1)*n : (kk+1)*n+n : (kk+1)*n+n]
		bz := b[(kk+2)*n : (kk+2)*n+n : (kk+2)*n+n]
		bw := b[(kk+3)*n : (kk+3)*n+n : (kk+3)*n+n]
		for j, v := range bx {
			w0 := int64(v)
			w1 := int64(by[j])
			w2 := int64(bz[j])
			w3 := int64(bw[j])
			acc01[j] += a01x*w0 + a01y*w1 + a01z*w2 + a01w*w3
			acc23[j] += a23x*w0 + a23y*w1 + a23z*w2 + a23w*w3
		}
	}
	for ; kk+1 < k; kk += 2 {
		q := pan[kk*panelRows : kk*panelRows+8]
		a01x := int64(q[0]) + int64(q[1])<<32
		a23x := int64(q[2]) + int64(q[3])<<32
		a01y := int64(q[4]) + int64(q[5])<<32
		a23y := int64(q[6]) + int64(q[7])<<32
		bx := b[kk*n : kk*n+n : kk*n+n]
		by := b[(kk+1)*n : (kk+1)*n+n : (kk+1)*n+n]
		for j, v := range bx {
			w0 := int64(v)
			w1 := int64(by[j])
			acc01[j] += a01x*w0 + a01y*w1
			acc23[j] += a23x*w0 + a23y*w1
		}
	}
	if kk < k {
		q := pan[kk*panelRows : kk*panelRows+4]
		a01 := int64(q[0]) + int64(q[1])<<32
		a23 := int64(q[2]) + int64(q[3])<<32
		brow := b[kk*n : kk*n+n : kk*n+n]
		for j, v := range brow {
			w := int64(v)
			acc01[j] += a01 * w
			acc23[j] += a23 * w
		}
	}
}

// lane extracts one 32-bit lane sum from a packed accumulator: the low
// lane is a plain truncation (the true sum fits in int32, so two's
// complement wraparound is the identity), and the high lane is recovered
// after subtracting the decoded low lane, which cancels its borrow.
func lane(pv int64, hi bool) int32 {
	lo := int32(pv)
	if !hi {
		return lo
	}
	return int32((pv - int64(lo)) >> 32)
}

// dequantRows applies the fused requantize+bias+ReLU epilogue: packed
// int64 accumulator lanes → float32 output rows.
func (p *PackedInt8) dequantRows(dst []float32, acc01, acc23 []int64, r0, n, rem int, zp int32, outScale, bias []float32, relu bool) {
	for r := 0; r < rem; r++ {
		row := dst[r*n : (r+1)*n]
		pairs := acc01
		if r >= 2 {
			pairs = acc23
		}
		hi := r&1 == 1
		corr := zp * p.rowSum[r0+r]
		s := outScale[r0+r]
		var bv float32
		if bias != nil {
			bv = bias[r0+r]
		}
		if relu {
			for j, pv := range pairs[:n] {
				v := float32(lane(pv, hi)-corr)*s + bv
				if v > 0 {
					row[j] = v
				} else {
					row[j] = 0
				}
			}
		} else {
			for j, pv := range pairs[:n] {
				row[j] = float32(lane(pv, hi)-corr)*s + bv
			}
		}
	}
}

// DotPanelInto computes four outputs of the quantized y = Q·x for one
// input vector, dequantized into dst[4·pi : min(4·pi+4, rows)]. x is the
// quantized activation vector (length cols, zero point zp). Accumulation
// stays in registers, so unlike MulPanelsInto no scratch is needed —
// this is the orientation the fully-connected layers use. The assembly
// kernel sums the leading multiple of eight terms (dead rows of a tail
// panel are zeros there too) and the loop below adds the rest.
func (p *PackedInt8) DotPanelInto(dst []float32, x []int8, pi int, zp int32, outScale, bias []float32, relu bool) {
	k := p.cols
	pan := p.panels[pi*panelRows*k : (pi+1)*panelRows*k]
	var a0, a1, a2, a3 int32
	if useAVX2 {
		var lead [panelRows]int32
		done := p.dotPanelAsm(&lead, x, pi)
		a0, a1, a2, a3 = lead[0], lead[1], lead[2], lead[3]
		x, pan, k = x[done:], pan[done*panelRows:], k-done
	}
	for kk, v := range x[:k] {
		q := pan[kk*panelRows : kk*panelRows+4]
		w := int32(v)
		a0 += int32(q[0]) * w
		a1 += int32(q[1]) * w
		a2 += int32(q[2]) * w
		a3 += int32(q[3]) * w
	}
	r0 := pi * panelRows
	rem := p.rows - r0
	if rem > panelRows {
		rem = panelRows
	}
	acc := [panelRows]int32{a0, a1, a2, a3}
	for r := 0; r < rem; r++ {
		v := float32(acc[r]-zp*p.rowSum[r0+r]) * outScale[r0+r]
		if bias != nil {
			v += bias[r0+r]
		}
		if relu && !(v > 0) {
			v = 0
		}
		dst[r0+r] = v
	}
}

// Im2ColSliceInt8 is Im2ColSlice over quantized activations: it lowers
// one c×h×w int8 image into dst (length (c·KH·KW)·(OH·OW)). Out-of-bounds
// taps are filled with pad — the quantized code of real 0.0, i.e. the
// activation zero point — which keeps the epilogue's zp·rowSum
// correction exact in padded regions.
func Im2ColSliceInt8(dst, img []int8, c, h, w int, g ConvGeom, pad int8) {
	oh, _ := g.OutSize(h, w)
	im2colRows(dst, img, c, h, w, g, 0, oh, pad)
}
