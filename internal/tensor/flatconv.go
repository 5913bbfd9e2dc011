package tensor

// The two pieces of data a stride-1 convolution needs to run on the
// clip itself (Packed.MulPanelFlat) instead of on its im2col lowering:
// a zero-bordered copy of the input and, per geometry, the table that
// turns a GEMM term into a shift within that copy.

// PaddedLen returns the length of a c×h×w input laid out with a border
// of padH rows and padW columns around every channel plane.
func PaddedLen(c, h, w, padH, padW int) int {
	return c * (h + 2*padH) * (w + 2*padW)
}

// PadBorder zeroes the border of every channel plane of dst, a
// c×(h+2·padH)×(w+2·padW) buffer, and nothing else. The interior is
// PadInterior's: a caller that reuses one buffer for many inputs of one
// shape zeroes the border once — scratch memory arrives with
// unspecified contents — and only copies after that.
func PadBorder(dst []float32, c, h, w, padH, padW int) {
	hp, wp := h+2*padH, w+2*padW
	if padH == 0 && padW == 0 {
		return
	}
	for ch := 0; ch < c; ch++ {
		plane := dst[ch*hp*wp : (ch+1)*hp*wp]
		// The right border of one interior row and the left border of
		// the next are adjacent, so everything outside the interior is
		// the top rows plus the first left border, h−1 runs of 2·padW,
		// and the last right border plus the bottom rows.
		first := padH*wp + padW
		fill(plane[:first], 0)
		for end := first + wp; end < first+h*wp; end += wp {
			for i := end - 2*padW; i < end; i++ {
				plane[i] = 0
			}
		}
		fill(plane[first+(h-1)*wp+w:], 0)
	}
}

// PadInterior copies a c×h×w input into the interior of dst, leaving
// the border PadBorder zeroed untouched.
func PadInterior(dst, src []float32, c, h, w, padH, padW int) {
	hp, wp := h+2*padH, w+2*padW
	for ch := 0; ch < c; ch++ {
		in := src[ch*h*w : (ch+1)*h*w]
		out := dst[ch*hp*wp+padH*wp+padW:]
		for y := 0; y < h; y++ {
			copy(out[y*wp:y*wp+w], in[y*w:(y+1)*w])
		}
	}
}

// FlatOffsets fills off (reusing its capacity) with the shift of every
// GEMM term kk = (ch, kh, kw), in im2col's row order, of a stride-1
// convolution over a c-channel input padded to hp×wp: output flat
// position q = oy·wp + ox reads the padded input at off[kk] + q.
//
// The largest shift plus the largest position, (c·hp·wp − 1), is the
// last element of the padded buffer: with OH = hp−KH+1 and OW = wp−KW+1
// the last real position is (OH−1)·wp + OW − 1 and the last shift
// (c−1)·hp·wp + (KH−1)·wp + KW − 1. Every position before it — the
// seam positions ox ≥ OW included — therefore reads inside the buffer.
func FlatOffsets(off []int, c, hp, wp, kh, kw int) []int {
	off = off[:0]
	for ch := 0; ch < c; ch++ {
		for y := 0; y < kh; y++ {
			for x := 0; x < kw; x++ {
				off = append(off, ch*hp*wp+y*wp+x)
			}
		}
	}
	return off
}
