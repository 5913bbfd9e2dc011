package tensor

import (
	"fmt"
	"math"
)

// MaxPool2x2 is the 2×2 / stride-2 unpadded max pool of one plane: dst
// is the dense oh×ow output, src holds the input rows at a stride of
// `stride` floats (the plane's own width, or the padded row width of a
// conv block's strided scratch), and output (oy, ox) takes input rows
// 2oy, 2oy+1 and columns 2ox, 2ox+1. Each output starts from -Inf and
// takes, in row-major window order, every input that compares greater —
// so NaN never wins, an all-NaN window stays -Inf and of equal zeros the
// first one seen stays — which is what the generic window loop of
// nn.MaxPool2D computes, bit for bit, whether the assembly kernels
// (maxpool_amd64.s: sixteen outputs a step for ow ≥ 16 on ZMM, eight for
// ow ≥ 8, four for ow ≥ 4) or the scalar loop below produced it.
func MaxPool2x2(dst, src []float32, oh, ow, stride int) {
	if useAVX2 && ow >= 4 {
		maxPool2x2Asm(dst, src, oh, ow, stride)
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

// MaxBins max-pools planes of h×w inputs into bins given by bound
// tables: plane p reads src[p·srcStride:][:h·w] and writes
// dst[p·dstStride:][:oh·ow] with oh = len(rows)/2 and ow = len(cols)/2,
// and output (oy, ox) covers rows [rows[2oy], rows[2oy+1]) and columns
// [cols[2ox], cols[2ox+1]) — the adaptive pools of an SPP pyramid, each
// level one call per sample. Each bin starts from -Inf and takes, in
// row-major order, every input that compares greater: NaN never wins, a
// bin of only NaNs stays -Inf and of equal zeros the first one seen
// stays. The AVX kernel (maxpool_amd64.s) is that loop with the compare
// and the select one VMAXSS, the running best as its second source, so
// the bits are the same and nothing is branched on the data.
func MaxBins(dst []float32, dstStride int, src []float32, srcStride, planes, h, w int, rows, cols []int) {
	oh, ow := len(rows)/2, len(cols)/2
	ok := planes >= 0 && h >= 1 && w >= 1 && h <= srcStride/w && len(rows)%2 == 0 && len(cols)%2 == 0 &&
		oh <= dstStride && (oh == 0 || ow <= dstStride/oh) && binsWithin(rows, h) && binsWithin(cols, w)
	if ok && planes > 0 {
		ok = len(src) >= h*w && (len(src)-h*w)/srcStride >= planes-1 &&
			len(dst) >= oh*ow && (oh*ow == 0 || (len(dst)-oh*ow)/dstStride >= planes-1)
	}
	if !ok {
		panic(fmt.Sprintf("tensor: MaxBins out of range: len(dst)=%d stride %d, len(src)=%d stride %d, %d planes of %dx%d, %d row and %d column bounds",
			len(dst), dstStride, len(src), srcStride, planes, h, w, len(rows), len(cols)))
	}
	if planes == 0 || oh*ow == 0 {
		return
	}
	if useAVX2 {
		maxBinsAsm(dst, dstStride, src, srcStride, planes, w, rows, cols)
		return
	}
	for p := 0; p < planes; p++ {
		in := src[p*srcStride : p*srcStride+h*w]
		out := dst[p*dstStride : p*dstStride+oh*ow]
		for oy := 0; oy < oh; oy++ {
			y0, y1 := rows[2*oy], rows[2*oy+1]
			for ox := 0; ox < ow; ox++ {
				x0, x1 := cols[2*ox], cols[2*ox+1]
				best := float32(math.Inf(-1))
				for iy := y0; iy < y1; iy++ {
					for _, v := range in[iy*w+x0 : iy*w+x1] {
						if v > best {
							best = v
						}
					}
				}
				out[oy*ow+ox] = best
			}
		}
	}
}

// binsWithin reports whether every [lo, hi) pair of bounds is a
// non-empty range inside [0, n).
func binsWithin(bounds []int, n int) bool {
	for i := 0; i+1 < len(bounds); i += 2 {
		if lo, hi := bounds[i], bounds[i+1]; lo < 0 || hi <= lo || hi > n {
			return false
		}
	}
	return true
}
