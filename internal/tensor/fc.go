package tensor

import "fmt"

// fcGroup is the row group of the fully-connected layout: sixteen
// output rows, one ZMM (two YMM) of outputs per sample.
const fcGroup = 16

// fcTiles lists the sample counts of the FC layer's multi-sample tiles,
// widest first: 16 rows × 16, × 8 and × 4 samples, one ZMM accumulator
// per sample. The YMM leg has none: AVX2 hosts repeat the one-sample
// kernel per sample (DESIGN §5.8 gives the measurements).
func fcTiles() []int {
	if useAVX512 {
		return []int{16, 8, 4}
	}
	return nil
}

// PackedFC is an immutable fully-connected weight matrix W (rows×cols,
// one row per output) laid out for the FC kernels. Rows are grouped by
// sixteen and, within a group, the sixteen weights of each input k are
// contiguous, so one vector load fetches what sixteen outputs need at
// that k:
//
//	groups[g*16*cols + k*16 + r] = W[16g+r][k]
//
// Rows beyond the matrix (when rows % 16 != 0) are zero-filled. The
// layout does not depend on the instruction set, so every path — the
// ZMM and YMM kernels and the scalar loop — reads the same array, and
// one pack per layer is shared by every serving replica.
type PackedFC struct {
	rows, cols int
	groups     []float32
}

// PackFC packs a rank-2 weight tensor (rows×cols) into the FC layout.
func PackFC(w *Tensor) *PackedFC {
	if w.Rank() != 2 {
		panic(fmt.Sprintf("tensor: PackFC requires a rank-2 tensor, got shape %v", w.shape))
	}
	m, k := w.shape[0], w.shape[1]
	ng := (m + fcGroup - 1) / fcGroup
	p := &PackedFC{rows: m, cols: k, groups: make([]float32, ng*fcGroup*k)}
	for r := 0; r < m; r++ {
		base := (r/fcGroup)*fcGroup*k + r%fcGroup
		for kk, v := range w.data[r*k : (r+1)*k] {
			p.groups[base+kk*fcGroup] = v
		}
	}
	return p
}

// Groups returns the number of 16-row groups.
func (p *PackedFC) Groups() int { return (p.rows + fcGroup - 1) / fcGroup }

// MulTransInto computes outputs [16·g0, min(16·g1, rows)) of
// y = x·Wᵀ (+bias, ReLU) for n samples: x is the row-major n×cols
// activation matrix, y the row-major n×rows output, both as raw slices,
// and every other output is left untouched. When bias is non-nil,
// bias[r] is added to output r after the full k-accumulation; when relu
// is set, what is not above zero (NaN included) becomes +0 after the
// bias. Each output is one chain over ascending k from +0, a rounded
// multiply then a rounded add per term, then the bias add, then the
// clamp — the IEEE operations of MatMulTransB followed by the bias and
// ReLU passes — so the result has the same bits whichever path computed
// it: the ZMM or YMM kernels (panel_amd64.s, useAVX512/useAVX2) or the
// scalar loop, and whatever the batch or group range.
//
// This is the entry of the fully-connected layers at every batch size.
// Nothing is transposed: a kernel lane is one output row of one sample,
// its weight vector is a load from the layout and its sample value a
// broadcast from x.
func (p *PackedFC) MulTransInto(y, x []float32, n int, bias []float32, relu bool, g0, g1 int) {
	g0, g1 = max(g0, 0), min(g1, p.Groups())
	if n <= 0 || g0 >= g1 {
		return
	}
	m, k := p.rows, p.cols
	if len(x)/n < k || len(y)/n < m || (bias != nil && len(bias) < m) {
		panic(fmt.Sprintf("tensor: PackedFC.MulTransInto on %d samples: len(x)=%d len(y)=%d len(bias)=%d for %dx%d weights",
			n, len(x), len(y), len(bias), m, k))
	}
	if useAVX2 {
		p.mulAsm(y, x, n, bias, relu, g0, g1)
		return
	}
	p.mulScalar(y, x, n, bias, relu, g0, g1)
}

// mulScalar is MulTransInto on the scalar loop: the purego build's and
// a non-AVX2 host's path, and the form the kernels' lanes spell out.
func (p *PackedFC) mulScalar(y, x []float32, n int, bias []float32, relu bool, g0, g1 int) {
	m, k := p.rows, p.cols
	for j := 0; j < n; j++ {
		xj, yj := x[j*k:(j+1)*k], y[j*m:(j+1)*m]
		for g := g0; g < g1; g++ {
			pan := p.groups[g*fcGroup*k : (g+1)*fcGroup*k]
			var acc [fcGroup]float32
			for kk, v := range xj {
				w := pan[kk*fcGroup : kk*fcGroup+fcGroup]
				for r := range acc {
					acc[r] += w[r] * v
				}
			}
			r0 := g * fcGroup
			for r, v := range acc[:min(fcGroup, m-r0)] {
				if bias != nil {
					v += bias[r0+r]
				}
				if relu && !(v > 0) {
					v = 0
				}
				yj[r0+r] = v
			}
		}
	}
}
