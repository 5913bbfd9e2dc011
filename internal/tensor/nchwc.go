package tensor

import "fmt"

// nchwcLanes is the output-channel blocking width: four output channels
// are produced together so each loaded input element is reused four
// times from registers, mirroring the 4-row panel of the GEMM path.
const nchwcLanes = 4

// PackedNCHWc holds convolution weights blocked for the cache-blocked
// direct kernel (OIhw4o layout): output channels are grouped into lanes
// of four and the innermost dimension is the lane, so the inner loop
// loads the four weights it needs from one contiguous quad:
//
//	q[(((ob*inC+ic)*KH+kh)*KW+kw)*4 + lane] = W[ob*4+lane][ic][kh][kw]
//
// Unlike the im2col path there is no lowered-input materialization at
// all — the kernel reads input rows in place — which is the cache win:
// the im2col buffer for a 64-channel 50×50 layer is ~5.8 MB per sample,
// far past L2, while the in-place reads stream each input row once per
// (kh,kw).
//
// Accumulation over (ic, kh, kw) stays ascending per output element —
// exactly the k-order of the im2col GEMM (k = (ic·KH+kh)·KW+kw) — and
// zero-padding terms are skipped rather than multiplied in. Both choices
// are bitwise-safe: the term order is identical, and an accumulator
// started at +0.0 can never become −0.0, so dropping w·0 terms cannot
// flip a sign bit. The NCHWc result is therefore bit-identical to the
// im2col+GEMM reference (asserted by TestNCHWcParity), and it needs no
// accuracy gate.
type PackedNCHWc struct {
	outC, inC int
	geom      ConvGeom
	q         []float32
}

// PackNCHWc blocks an OC×IC×KH×KW weight tensor into OIhw4o layout.
// Lanes past outC (when outC % 4 != 0) are zero-filled.
func PackNCHWc(w *Tensor, g ConvGeom) *PackedNCHWc {
	if w.Rank() != 4 {
		panic(fmt.Sprintf("tensor: PackNCHWc requires OC×IC×KH×KW weights, got shape %v", w.shape))
	}
	oc, ic, kh, kw := w.shape[0], w.shape[1], w.shape[2], w.shape[3]
	if kh != g.KH || kw != g.KW {
		panic(fmt.Sprintf("tensor: PackNCHWc weight kernel %dx%d vs geom %dx%d", kh, kw, g.KH, g.KW))
	}
	nb := (oc + nchwcLanes - 1) / nchwcLanes
	p := &PackedNCHWc{outC: oc, inC: ic, geom: g, q: make([]float32, nb*ic*kh*kw*nchwcLanes)}
	for o := 0; o < oc; o++ {
		ob, lane := o/nchwcLanes, o%nchwcLanes
		for i := 0; i < ic; i++ {
			for y := 0; y < kh; y++ {
				for x := 0; x < kw; x++ {
					src := ((o*ic+i)*kh+y)*kw + x
					dst := (((ob*ic+i)*kh+y)*kw+x)*nchwcLanes + lane
					p.q[dst] = w.data[src]
				}
			}
		}
	}
	return p
}

// OutC returns the output channel count.
func (p *PackedNCHWc) OutC() int { return p.outC }

// InC returns the input channel count.
func (p *PackedNCHWc) InC() int { return p.inC }

// Blocks returns the number of 4-output-channel blocks.
func (p *PackedNCHWc) Blocks() int { return (p.outC + nchwcLanes - 1) / nchwcLanes }

// convOxRange returns the half-open output-x range [ox0, ox1) whose
// input column ox·sW − pW + kx lands inside [0, w). Outside the range
// the input is implicit zero padding and the term is skipped.
func convOxRange(kx, sW, pW, w, ow int) (ox0, ox1 int) {
	if d := pW - kx; d > 0 {
		ox0 = (d + sW - 1) / sW
	}
	last := w - 1 + pW - kx
	if last < 0 {
		return 0, 0
	}
	ox1 = last/sW + 1
	if ox1 > ow {
		ox1 = ow
	}
	if ox0 > ox1 {
		ox0 = ox1
	}
	return ox0, ox1
}

// ConvBlocks convolves one image for output-channel blocks [b0, b1):
// src is inC×h×w, dst is outC×oh×ow (the block's four planes are fully
// overwritten), bias and relu are fused into the epilogue. No scratch is
// needed — accumulation happens in dst. Blocks are independent, so
// callers can spread them across the worker pool.
func (p *PackedNCHWc) ConvBlocks(dst, src []float32, h, w int, bias []float32, relu bool, b0, b1 int) {
	g := p.geom
	oh, ow := g.OutSize(h, w)
	ohow := oh * ow
	ickk := p.inC * g.KH * g.KW * nchwcLanes
	for ob := b0; ob < b1; ob++ {
		oc0 := ob * nchwcLanes
		rem := p.outC - oc0
		if rem >= nchwcLanes {
			p.convBlock4(dst[oc0*ohow:(oc0+4)*ohow], src, p.q[ob*ickk:(ob+1)*ickk], h, w, oh, ow)
		} else {
			p.convBlockTail(dst[oc0*ohow:(oc0+rem)*ohow], src, p.q[ob*ickk:(ob+1)*ickk], h, w, oh, ow, rem)
		}
		epilogue(dst[oc0*ohow:], bias, oc0, ohow, min(rem, nchwcLanes), relu, 0, ohow)
	}
}

// convBlock4 accumulates four full output planes. The (ic, kh, kw) loop
// nest is the GEMM k-order; the spatial loops are innermost so each
// (iy, kw) pass streams one contiguous input row segment into four
// accumulator rows.
func (p *PackedNCHWc) convBlock4(acc, src, wq []float32, h, w, oh, ow int) {
	g := p.geom
	a0 := acc[0 : oh*ow : oh*ow]
	a1 := acc[oh*ow : 2*oh*ow : 2*oh*ow]
	a2 := acc[2*oh*ow : 3*oh*ow : 3*oh*ow]
	a3 := acc[3*oh*ow : 4*oh*ow : 4*oh*ow]
	for i := range a0 {
		a0[i] = 0
	}
	for i := range a1 {
		a1[i] = 0
	}
	for i := range a2 {
		a2[i] = 0
	}
	for i := range a3 {
		a3[i] = 0
	}
	for ic := 0; ic < p.inC; ic++ {
		plane := src[ic*h*w : (ic+1)*h*w]
		for kh := 0; kh < g.KH; kh++ {
			for kw := 0; kw < g.KW; kw++ {
				q := wq[((ic*g.KH+kh)*g.KW+kw)*nchwcLanes:]
				w0, w1, w2, w3 := q[0], q[1], q[2], q[3]
				ox0, ox1 := convOxRange(kw, g.StrideW, g.PadW, w, ow)
				if ox0 >= ox1 {
					continue
				}
				for oy := 0; oy < oh; oy++ {
					iy := oy*g.StrideH - g.PadH + kh
					if iy < 0 || iy >= h {
						continue
					}
					ib := iy*w + ox0*g.StrideW - g.PadW + kw
					o := oy * ow
					if g.StrideW == 1 {
						row := plane[ib : ib+(ox1-ox0)]
						for j, v := range row {
							ox := o + ox0 + j
							a0[ox] += w0 * v
							a1[ox] += w1 * v
							a2[ox] += w2 * v
							a3[ox] += w3 * v
						}
					} else {
						for ox := ox0; ox < ox1; ox++ {
							v := plane[ib]
							a0[o+ox] += w0 * v
							a1[o+ox] += w1 * v
							a2[o+ox] += w2 * v
							a3[o+ox] += w3 * v
							ib += g.StrideW
						}
					}
				}
			}
		}
	}
}

// convBlockTail handles the final partial block (1–3 live lanes).
func (p *PackedNCHWc) convBlockTail(acc, src, wq []float32, h, w, oh, ow, rem int) {
	g := p.geom
	for i := range acc {
		acc[i] = 0
	}
	for lane := 0; lane < rem; lane++ {
		a := acc[lane*oh*ow : (lane+1)*oh*ow]
		for ic := 0; ic < p.inC; ic++ {
			plane := src[ic*h*w : (ic+1)*h*w]
			for kh := 0; kh < g.KH; kh++ {
				for kw := 0; kw < g.KW; kw++ {
					wv := wq[((ic*g.KH+kh)*g.KW+kw)*nchwcLanes+lane]
					ox0, ox1 := convOxRange(kw, g.StrideW, g.PadW, w, ow)
					for oy := 0; oy < oh; oy++ {
						iy := oy*g.StrideH - g.PadH + kh
						if iy < 0 || iy >= h {
							continue
						}
						ib := iy*w + ox0*g.StrideW - g.PadW + kw
						o := oy * ow
						for ox := ox0; ox < ox1; ox++ {
							a[o+ox] += wv * plane[ib]
							ib += g.StrideW
						}
					}
				}
			}
		}
	}
}
