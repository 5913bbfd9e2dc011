package tensor

import "fmt"

// ConvGeom describes the geometry of a 2-D convolution or pooling window.
type ConvGeom struct {
	KH, KW     int // kernel height/width
	StrideH    int
	StrideW    int
	PadH, PadW int
}

// OutSize returns the output spatial size for an input of h×w.
func (g ConvGeom) OutSize(h, w int) (oh, ow int) {
	oh = (h+2*g.PadH-g.KH)/g.StrideH + 1
	ow = (w+2*g.PadW-g.KW)/g.StrideW + 1
	return oh, ow
}

// Validate reports an error if the geometry cannot produce a non-empty
// output for an h×w input.
func (g ConvGeom) Validate(h, w int) error {
	if g.KH <= 0 || g.KW <= 0 || g.StrideH <= 0 || g.StrideW <= 0 {
		return fmt.Errorf("tensor: invalid conv geometry %+v", g)
	}
	oh, ow := g.OutSize(h, w)
	if oh <= 0 || ow <= 0 {
		return fmt.Errorf("tensor: conv geometry %+v yields empty output for %dx%d input", g, h, w)
	}
	return nil
}

// Im2Col lowers a single image (C×H×W tensor) into a matrix of shape
// (C*KH*KW) × (OH*OW), where each column is the receptive field of one
// output pixel. Zero padding is applied implicitly.
func Im2Col(img *Tensor, g ConvGeom) *Tensor {
	if img.Rank() != 3 {
		panic("tensor: Im2Col requires a C×H×W tensor")
	}
	c, h, w := img.shape[0], img.shape[1], img.shape[2]
	oh, ow := g.OutSize(h, w)
	cols := New(c*g.KH*g.KW, oh*ow)
	Im2ColInto(cols, img, g)
	return cols
}

// Im2ColInto is Im2Col writing into a preallocated destination.
func Im2ColInto(dst, img *Tensor, g ConvGeom) {
	c, h, w := img.shape[0], img.shape[1], img.shape[2]
	oh, ow := g.OutSize(h, w)
	if dst.shape[0] != c*g.KH*g.KW || dst.shape[1] != oh*ow {
		panic(fmt.Sprintf("tensor: Im2ColInto destination shape %v, want [%d %d]", dst.shape, c*g.KH*g.KW, oh*ow))
	}
	Im2ColSlice(dst.data, img.data, c, h, w, g)
}

// Im2ColSlice is the raw-slice core of Im2ColInto: it lowers one c×h×w
// image stored in img into dst, which must have length
// (c*KH*KW)·(OH*OW). Taking plain slices lets inference-mode callers
// lower samples of a batch tensor without materializing per-sample
// tensor headers. It is the full row range of Im2ColSliceRows.
func Im2ColSlice(dst, img []float32, c, h, w int, g ConvGeom) {
	oh, _ := g.OutSize(h, w)
	im2colRows(dst, img, c, h, w, g, 0, oh, 0)
}

// Im2ColSliceRows lowers the receptive fields of output rows [oy0, oy1)
// of one c×h×w image into dst, which has the full (c*KH*KW)·(OH*OW)
// layout of Im2ColSlice: output columns are row-major spatial positions
// oy*OW+ox, so a band of output rows is the contiguous column range
// [oy0*OW, oy1*OW) of every lowered row. Columns outside the band are
// left untouched — callers (the masked dynamic path) must only consume
// columns they lowered or filled.
func Im2ColSliceRows(dst, img []float32, c, h, w int, g ConvGeom, oy0, oy1 int) {
	im2colRows(dst, img, c, h, w, g, oy0, oy1, 0)
}

// im2colRows is the one im2col loop nest, shared by the fp32 and int8
// lowerings: out-of-bounds taps read pad (0, or the int8 activation zero
// point). Lowering is pure data movement, so it is done by copy wherever
// the geometry leaves runs to move. At StrideW == 1 — every conv this
// repo serves — each (channel, kh, kw, oy) row of the lowered matrix is
// a run of pad, one contiguous run of the image row, and a run of pad.
// When the output is also as wide as the image and StrideH == 1 (a
// "same"-padded conv), consecutive output rows read consecutive image
// rows, so all in-image rows of one (channel, kh, kw) are a single run of
// both matrices: one copy moves them, running over the few pad columns
// between rows, which are then put back. The per-element form remains
// for wider strides.
func im2colRows[T float32 | int8](dst, img []T, c, h, w int, g ConvGeom, oy0, oy1 int, pad T) {
	oh, ow := g.OutSize(h, w)
	if oy0 < 0 {
		oy0 = 0
	}
	if oy1 > oh {
		oy1 = oh
	}
	if oy0 >= oy1 {
		return
	}
	ncols := oh * ow
	plane := g.StrideW == 1 && g.StrideH == 1 && ow == w
	for ch := 0; ch < c; ch++ {
		chBase := ch * h * w
		for kh := 0; kh < g.KH; kh++ {
			for kw := 0; kw < g.KW; kw++ {
				row := dst[((ch*g.KH+kh)*g.KW+kw)*ncols:][:ncols]
				// Output columns [lo, hi) read inside the image row at
				// stride 1: ix = ox - PadW + kw must lie in [0, w).
				lo := min(max(g.PadW-kw, 0), ow)
				hi := max(min(w+g.PadW-kw, ow), lo)
				if plane && lo < hi {
					// Output rows [ya, yb) read inside the image:
					// iy = oy - PadH + kh must lie in [0, h).
					ya := min(max(g.PadH-kh, oy0), oy1)
					yb := max(min(h+g.PadH-kh, oy1), ya)
					fill(row[oy0*ow:ya*ow], pad)
					fill(row[yb*ow:oy1*ow], pad)
					if ya < yb {
						copy(row[ya*ow+lo:(yb-1)*ow+hi], img[chBase+(ya-g.PadH+kh)*w+lo-g.PadW+kw:])
						for oy := ya; lo > 0 && oy < yb; oy++ {
							fill(row[oy*ow:oy*ow+lo], pad)
						}
						for oy := ya; hi < ow && oy < yb; oy++ {
							fill(row[oy*ow+hi:(oy+1)*ow], pad)
						}
					}
					continue
				}
				for oy := oy0; oy < oy1; oy++ {
					out := row[oy*ow : (oy+1)*ow]
					iy := oy*g.StrideH - g.PadH + kh
					if iy < 0 || iy >= h {
						fill(out, pad)
						continue
					}
					in := img[chBase+iy*w : chBase+(iy+1)*w]
					if g.StrideW != 1 {
						for ox := range out {
							if ix := ox*g.StrideW - g.PadW + kw; ix < 0 || ix >= w {
								out[ox] = pad
							} else {
								out[ox] = in[ix]
							}
						}
						continue
					}
					fill(out[:lo], pad)
					if lo < hi {
						copy(out[lo:hi], in[lo-g.PadW+kw:])
					}
					fill(out[hi:], pad)
				}
			}
		}
	}
}

func fill[T float32 | int8](s []T, v T) {
	for i := range s {
		s[i] = v
	}
}

// Col2Im scatters a lowered-gradient matrix (C*KH*KW × OH*OW) back into an
// image-shaped gradient (C×H×W), accumulating overlapping contributions.
func Col2Im(cols *Tensor, c, h, w int, g ConvGeom) *Tensor {
	img := New(c, h, w)
	Col2ImInto(img, cols, g)
	return img
}

// Col2ImInto accumulates cols into a zeroed img (C×H×W).
func Col2ImInto(img, cols *Tensor, g ConvGeom) {
	c, h, w := img.shape[0], img.shape[1], img.shape[2]
	oh, ow := g.OutSize(h, w)
	if cols.shape[0] != c*g.KH*g.KW || cols.shape[1] != oh*ow {
		panic(fmt.Sprintf("tensor: Col2ImInto cols shape %v, want [%d %d]", cols.shape, c*g.KH*g.KW, oh*ow))
	}
	img.Zero()
	cd := cols.data
	id := img.data
	ncols := oh * ow
	for ch := 0; ch < c; ch++ {
		chBase := ch * h * w
		for kh := 0; kh < g.KH; kh++ {
			for kw := 0; kw < g.KW; kw++ {
				row := ((ch*g.KH+kh)*g.KW + kw) * ncols
				for oy := 0; oy < oh; oy++ {
					iy := oy*g.StrideH - g.PadH + kh
					if iy < 0 || iy >= h {
						continue
					}
					inBase := chBase + iy*w
					srcBase := row + oy*ow
					for ox := 0; ox < ow; ox++ {
						ix := ox*g.StrideW - g.PadW + kw
						if ix < 0 || ix >= w {
							continue
						}
						id[inBase+ix] += cd[srcBase+ox]
					}
				}
			}
		}
	}
}
