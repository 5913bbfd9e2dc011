package tensor

import "fmt"

// panelRows is the register tile height of the packed micro-kernel:
// four output rows are produced together so each loaded element of B
// (or of the input vector) is reused four times from registers.
const panelRows = 4

// PanelRows is the number of output rows (conv output channels) one
// panel of a Packed matrix produces.
const PanelRows = panelRows

// The micro-kernels (panel_amd64.s) tile panelRows rows by kernelCols
// columns of a GEMM — the YMM kernel's block, and the narrowest band
// the ZMM kernel takes: a MulPanelsColsInto band at least this wide
// runs them, a narrower one the scalar loops.
const kernelCols = 16

// useAVX2 routes full panels through the assembly micro-kernels, and
// useAVX512 those kernels that have a ZMM form to it. Both are set once,
// at package init, from what the CPU and the OS report (haveAVX2 and
// avx512Missing: CPUID and XGETBV on amd64, false on every other GOARCH
// and under the purego build tag) and are not configurable: every path
// computes the same bits, so there is nothing to choose. useAVX512 is
// never set without useAVX2. Tests flip them to run the scalar loops
// and both kernel widths in one process.
var (
	useAVX2   = haveAVX2()
	useAVX512 = useAVX2 && avx512Missing() == ""
)

// KernelISA names the widest instruction set the serving kernels run
// on this host: "avx512", "avx2" or "generic" (the scalar loops).
func KernelISA() string {
	switch {
	case useAVX512:
		return "avx512"
	case useAVX2:
		return "avx2"
	}
	return "generic"
}

// Packed is an immutable matrix laid out for the inference matmul
// micro-kernel. Rows are grouped into panels of four; within a panel the
// four rows are interleaved column-by-column, so the kernel's inner loop
// loads the four weights it needs from one contiguous quad:
//
//	panels[p*4k + kk*4 + r] = A[4p+r][kk]
//
// Rows beyond the matrix (when rows % 4 != 0) are zero-filled. Weight
// matrices are static per serving replica, so packing happens once at
// model load and the panels are shared by every replica.
type Packed struct {
	rows, cols int
	panels     []float32
}

// PackMatrix packs a rank-2 tensor (rows×cols) into panel layout.
func PackMatrix(a *Tensor) *Packed {
	if a.Rank() != 2 {
		panic(fmt.Sprintf("tensor: PackMatrix requires a rank-2 tensor, got shape %v", a.shape))
	}
	m, k := a.shape[0], a.shape[1]
	np := (m + panelRows - 1) / panelRows
	p := &Packed{rows: m, cols: k, panels: make([]float32, np*panelRows*k)}
	for r := 0; r < m; r++ {
		base := (r / panelRows) * panelRows * k
		lane := r % panelRows
		row := a.data[r*k : (r+1)*k]
		for kk, v := range row {
			p.panels[base+kk*panelRows+lane] = v
		}
	}
	return p
}

// Rows returns the logical row count (m).
func (p *Packed) Rows() int { return p.rows }

// Cols returns the logical column count (k).
func (p *Packed) Cols() int { return p.cols }

// Panels returns the number of 4-row panels.
func (p *Packed) Panels() int { return (p.rows + panelRows - 1) / panelRows }

// MulInto computes dst = P·b (+bias, ReLU) over all panels, spreading
// panels across the shared worker pool. dst must be rows×n and b cols×n.
// See MulPanelsInto for the epilogue semantics.
func (p *Packed) MulInto(dst, b *Tensor, bias []float32, relu bool) {
	if dst.shape[0] != p.rows || dst.shape[1] != b.shape[1] || b.shape[0] != p.cols {
		panic(fmt.Sprintf("tensor: Packed.MulInto shapes dst%v b%v vs packed %dx%d",
			dst.shape, b.shape, p.rows, p.cols))
	}
	t := packedMulTask{p: p, dst: dst.data, b: b.data, n: b.shape[1], bias: bias, relu: relu}
	ParallelRange(p.Panels(), 1, &t)
}

type packedMulTask struct {
	p      *Packed
	dst, b []float32
	n      int
	bias   []float32
	relu   bool
}

func (t *packedMulTask) RunRange(lo, hi int) {
	t.p.MulPanelsInto(t.dst, t.b, t.n, t.bias, t.relu, lo, hi)
}

// MulPanelsInto computes output rows [4*p0, min(4*p1, rows)) of
// dst = P·b, fully overwriting those rows of dst: the full column range
// of MulPanelsColsInto.
func (p *Packed) MulPanelsInto(dst, b []float32, n int, bias []float32, relu bool, p0, p1 int) {
	p.MulPanelsColsInto(dst, b, n, bias, relu, p0, p1, 0, n)
}

// MulPanelsColsInto computes output columns [c0, c1) of output rows
// [4*p0, min(4*p1, rows)) of dst = P·b, overwriting them and leaving
// every other column untouched. dst is rows×n row-major and b is cols×n
// row-major, both as raw slices. When bias is non-nil, bias[row] is
// added to every element of that row after the full k-accumulation; when
// relu is set, negatives are clamped to zero after the bias. Per output
// element the k-terms accumulate in ascending order from zero, each as a
// rounded multiply followed by a rounded add — the same IEEE operations
// as the reference MatMulInto kernel followed by a bias add and a ReLU
// pass — so the fused result is bit-identical to the unfused reference
// path, whichever column band it was computed in and whether the scalar
// loops below or an assembly micro-kernel (panel_amd64.s, YMM or ZMM)
// produced it.
//
// This is the fp32 GEMM entry of the lowered serving routes: the
// stride ≠ 1 convs, the masked dynamic path's row bands and the 16
// Winograd position GEMMs land here (the fully-connected layers have
// their own layout, PackedFC); the stride-1 convs reach the same
// panel loop through MulPanelFlat. The micro-kernel takes full panels at
// least kernelCols columns wide; narrower bands and the partial last
// panel stay on the scalar loops.
func (p *Packed) MulPanelsColsInto(dst, b []float32, n int, bias []float32, relu bool, p0, p1, c0, c1 int) {
	if c0 < 0 {
		c0 = 0
	}
	if c1 > n {
		c1 = n
	}
	if c0 >= c1 {
		return
	}
	for pi := p0; pi < p1; pi++ {
		r0 := pi * panelRows
		p.mulPanel(dst[r0*n:min(r0+panelRows, p.rows)*n], b, nil, n, bias, relu, pi, c0, c1)
	}
}

// MulPanelFlat is panel pi of a stride-1 convolution computed on the
// zero-bordered input itself (PadBorder, PadInterior) instead of on its im2col
// lowering. Outputs are addressed by flat position q = oy·Wp + ox over
// the padded row width Wp, and term kk of position q reads
// src[off[kk]+q] (FlatOffsets: the tap's channel plane, row and column
// as one shift), so an output's terms are the same values, in the same
// ascending-k order, that row kk of the lowered matrix would hold at
// column oy·OW+ox — a pad tap multiplies a stored zero exactly as it
// would there — and they go through the one panel loop
// MulPanelsColsInto uses: same chain, same bits. dst holds the panel's
// own rows at stride n ≥ nq, positions [0, nq) of each are overwritten
// (+bias, ReLU as in MulPanelsColsInto). The Wp−OW positions per output
// row that straddle a row seam are computed like any other lane from
// in-range reads and mean nothing; callers never read them.
func (p *Packed) MulPanelFlat(dst, src []float32, off []int, n, nq int, bias []float32, relu bool, pi int) {
	if len(off) < p.cols || nq > n {
		panic(fmt.Sprintf("tensor: MulPanelFlat has %d offsets for %d terms, %d positions in rows of %d", len(off), p.cols, nq, n))
	}
	if nq <= 0 {
		return
	}
	p.mulPanel(dst, src, off[:p.cols], n, bias, relu, pi, 0, nq)
}

// mulPanel computes columns [c0, c1) of panel pi into c, the panel's
// own rows at stride n. Row kk of the right-hand side starts at
// b[kk*n] (off == nil, a row-major cols×n matrix) or at b[off[kk]]
// (the flat-shifted form); everything else — the micro-kernel for a
// full panel at least kernelCols wide, the scalar loops otherwise — is
// shared.
func (p *Packed) mulPanel(c, b []float32, off []int, n int, bias []float32, relu bool, pi, c0, c1 int) {
	k := p.cols
	r0 := pi * panelRows
	rem := min(p.rows-r0, panelRows)
	pan := p.panels[pi*panelRows*k : (pi+1)*panelRows*k]
	switch {
	case rem == panelRows && useAVX2 && c1-c0 >= kernelCols:
		var pbias []float32
		if bias != nil {
			pbias = bias[r0 : r0+panelRows]
		}
		if off != nil {
			mulPanel4FlatAsm(c, pan, b, off, pbias, n, c0, c1, relu)
		} else {
			mulPanel4Asm(c, pan, b, pbias, n, k, c0, c1, relu)
		}
		return
	case rem == panelRows:
		mulPanel4(c, pan, b, off, n, k, c0, c1)
	default:
		mulPanelTail(c, pan, b, off, n, k, rem, c0, c1)
	}
	epilogue(c, bias, r0, n, rem, relu, c0, c1)
}

// mulPanel4 computes columns [c0, c1) of four full output rows:
// c[r][j] = Σ_kk pan[kk*4+r] * b[kk][j], row kk of b starting at kk*n
// or, given an offset table, at off[kk]. The four accumulation streams
// are independent, giving the compiler ILP without the per-element
// zero-test the training kernel carries. It is the scalar form of the
// assembly micro-kernels and the oracle they are tested against.
func mulPanel4(c, pan, b []float32, off []int, n, k, c0, c1 int) {
	w := c1 - c0
	cc0 := c[c0 : c0+w : c0+w]
	cc1 := c[n+c0 : n+c0+w : n+c0+w]
	cc2 := c[2*n+c0 : 2*n+c0+w : 2*n+c0+w]
	cc3 := c[3*n+c0 : 3*n+c0+w : 3*n+c0+w]
	for i := range cc0 {
		cc0[i] = 0
	}
	for i := range cc1 {
		cc1[i] = 0
	}
	for i := range cc2 {
		cc2[i] = 0
	}
	for i := range cc3 {
		cc3[i] = 0
	}
	for kk := 0; kk < k; kk++ {
		q := pan[kk*panelRows : kk*panelRows+4]
		a0, a1, a2, a3 := q[0], q[1], q[2], q[3]
		base := kk*n + c0
		if off != nil {
			base = off[kk] + c0
		}
		brow := b[base : base+w : base+w]
		for j, v := range brow {
			cc0[j] += a0 * v
			cc1[j] += a1 * v
			cc2[j] += a2 * v
			cc3[j] += a3 * v
		}
	}
}

// mulPanelTail handles columns [c0, c1) of the final partial panel
// (1–3 live rows).
func mulPanelTail(c, pan, b []float32, off []int, n, k, rem, c0, c1 int) {
	w := c1 - c0
	for r := 0; r < rem; r++ {
		crow := c[r*n+c0 : r*n+c0+w : r*n+c0+w]
		for i := range crow {
			crow[i] = 0
		}
		for kk := 0; kk < k; kk++ {
			av := pan[kk*panelRows+r]
			base := kk*n + c0
			if off != nil {
				base = off[kk] + c0
			}
			brow := b[base : base+w : base+w]
			for j, v := range brow {
				crow[j] += av * v
			}
		}
	}
}

// epilogue applies the fused bias add and ReLU clamp to columns
// [c0, c1) of rem rows starting at logical row r0.
func epilogue(c []float32, bias []float32, r0, n, rem int, relu bool, c0, c1 int) {
	if bias == nil && !relu {
		return
	}
	for r := 0; r < rem; r++ {
		row := c[r*n+c0 : r*n+c1]
		var bv float32
		if bias != nil {
			bv = bias[r0+r]
		}
		if relu {
			for j, v := range row {
				v += bv
				if v > 0 {
					row[j] = v
				} else {
					row[j] = 0
				}
			}
		} else if bias != nil {
			for j := range row {
				row[j] += bv
			}
		}
	}
}
