package tensor

import "math"

// MaxPool2x2 is the 2×2 / stride-2 unpadded max pool of one plane: dst
// is the dense oh×ow output, src holds the input rows at a stride of
// `stride` floats (the plane's own width, or the padded row width of a
// conv block's strided scratch), and output (oy, ox) takes input rows
// 2oy, 2oy+1 and columns 2ox, 2ox+1. Each output starts from -Inf and
// takes, in row-major window order, every input that compares greater —
// so NaN never wins, an all-NaN window stays -Inf and of equal zeros the
// first one seen stays — which is what the generic window loop of
// nn.MaxPool2D computes, bit for bit, whether the AVX2 kernels
// (maxpool_amd64.s: eight outputs a step for ow ≥ 8, four for ow ≥ 4)
// or the scalar loop below produced it.
func MaxPool2x2(dst, src []float32, oh, ow, stride int) {
	if useAVX2 && ow >= 4 {
		maxPool2x2AVX2(dst, src, oh, ow, stride)
		return
	}
	for oy := 0; oy < oh; oy++ {
		r0 := src[2*oy*stride : 2*oy*stride+2*ow]
		r1 := src[(2*oy+1)*stride : (2*oy+1)*stride+2*ow]
		orow := dst[oy*ow : (oy+1)*ow]
		for ox := range orow {
			best := float32(math.Inf(-1))
			if v := r0[2*ox]; v > best {
				best = v
			}
			if v := r0[2*ox+1]; v > best {
				best = v
			}
			if v := r1[2*ox]; v > best {
				best = v
			}
			if v := r1[2*ox+1]; v > best {
				best = v
			}
			orow[ox] = best
		}
	}
}
