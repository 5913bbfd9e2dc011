package tensor

// DirectConvChans convolves one image for output channels [oc0, oc1)
// straight from the natural OC×IC×KH×KW weight layout — no packing, no
// im2col, no scratch. src is inC×h×w, dst is outC×oh×ow (the selected
// planes are fully overwritten), bias and relu fuse into the epilogue.
//
// This is the right kernel when the channel-reduction depth inC·KH·KW is
// too small for the GEMM micro-kernel to amortize its lowering: for the
// 4-channel first layer the im2col buffer costs more memory traffic than
// the convolution itself. Accumulation per output element is ascending
// (ic, kh, kw) with zero-padding terms skipped — the im2col GEMM k-order
// — so the result is bit-identical to the reference path (see
// TestDirectConvParity) and needs no accuracy gate.
//
// Output channels are independent, so callers can spread [oc0, oc1)
// across the worker pool.
func DirectConvChans(dst, src, wt []float32, inC, h, w int, g ConvGeom, outC int, bias []float32, relu bool, oc0, oc1 int) {
	oh, ow := g.OutSize(h, w)
	ohow := oh * ow
	kk := inC * g.KH * g.KW
	for oc := oc0; oc < oc1; oc++ {
		a := dst[oc*ohow : (oc+1)*ohow : (oc+1)*ohow]
		for i := range a {
			a[i] = 0
		}
		wc := wt[oc*kk : (oc+1)*kk]
		for ic := 0; ic < inC; ic++ {
			plane := src[ic*h*w : (ic+1)*h*w]
			for kh := 0; kh < g.KH; kh++ {
				for kw := 0; kw < g.KW; kw++ {
					wv := wc[(ic*g.KH+kh)*g.KW+kw]
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
								a[o+ox0+j] += wv * v
							}
						} else {
							for ox := ox0; ox < ox1; ox++ {
								a[o+ox] += wv * plane[ib]
								ib += g.StrideW
							}
						}
					}
				}
			}
		}
		epilogue(a, bias, oc, ohow, 1, relu, 0, ohow)
	}
}
