package nn

import (
	"fmt"
	"math"

	"drainnet/internal/tensor"
)

// MaxPool2D is a max pooling layer over N×C×H×W input with a square
// window, matching the paper's P_{size,stride} notation.
type MaxPool2D struct {
	Geom tensor.ConvGeom

	inShape []int
	argmax  []int32 // flat input index chosen for each output element

	task maxPoolTask // inference dispatch, reused across calls
}

// NewMaxPool2D creates a k×k max pool with the given stride and no padding.
func NewMaxPool2D(k, stride int) *MaxPool2D {
	return &MaxPool2D{Geom: tensor.ConvGeom{KH: k, KW: k, StrideH: stride, StrideW: stride}}
}

// Params implements Module.
func (p *MaxPool2D) Params() []*Param { return nil }

// OutShape implements Module.
func (p *MaxPool2D) OutShape(in []int) []int {
	oh, ow := p.Geom.OutSize(in[2], in[3])
	return []int{in[0], in[1], oh, ow}
}

// Forward implements Module.
func (p *MaxPool2D) Forward(x *tensor.Tensor) *tensor.Tensor {
	checkRank(x, 4, "MaxPool2D")
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	if err := p.Geom.Validate(h, w); err != nil {
		panic(err)
	}
	oh, ow := p.Geom.OutSize(h, w)
	p.inShape = append([]int(nil), x.Shape()...)
	out := tensor.New(n, c, oh, ow)
	if cap(p.argmax) < out.Len() {
		p.argmax = make([]int32, out.Len())
	}
	p.argmax = p.argmax[:out.Len()]
	g := p.Geom
	xd := x.Data()
	od := out.Data()
	tensor.ParallelFor(n*c, func(nc int) {
		inBase := nc * h * w
		outBase := nc * oh * ow
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				best := float32(math.Inf(-1))
				bestAt := int32(-1)
				for kh := 0; kh < g.KH; kh++ {
					iy := oy*g.StrideH + kh
					if iy >= h {
						break
					}
					for kw := 0; kw < g.KW; kw++ {
						ix := ox*g.StrideW + kw
						if ix >= w {
							break
						}
						v := xd[inBase+iy*w+ix]
						if v > best {
							best = v
							bestAt = int32(inBase + iy*w + ix)
						}
					}
				}
				od[outBase+oy*ow+ox] = best
				p.argmax[outBase+oy*ow+ox] = bestAt
			}
		}
	})
	return out
}

// Backward implements Module.
func (p *MaxPool2D) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	gradIn := tensor.New(p.inShape...)
	gd := gradOut.Data()
	gi := gradIn.Data()
	if len(gd) != len(p.argmax) {
		panic(fmt.Sprintf("nn: MaxPool2D.Backward gradient length %d, want %d", len(gd), len(p.argmax)))
	}
	for i, at := range p.argmax {
		if at >= 0 {
			gi[at] += gd[i]
		}
	}
	return gradIn
}

// AdaptiveMaxPool2D pools an N×C×H×W input to a fixed N×C×OutH×OutW output
// using PyTorch-style adaptive bins: bin i covers
// [floor(i*H/Out), ceil((i+1)*H/Out)). This is the building block of the
// SPP layer, which is what lets SPP-Net accept arbitrary input sizes.
type AdaptiveMaxPool2D struct {
	OutH, OutW int

	inShape []int
	argmax  []int32

	task adaptivePoolTask // inference dispatch, reused across calls
}

// NewAdaptiveMaxPool2D creates an adaptive max pool with an out×out target.
func NewAdaptiveMaxPool2D(out int) *AdaptiveMaxPool2D {
	return &AdaptiveMaxPool2D{OutH: out, OutW: out}
}

// Params implements Module.
func (p *AdaptiveMaxPool2D) Params() []*Param { return nil }

// OutShape implements Module.
func (p *AdaptiveMaxPool2D) OutShape(in []int) []int {
	return []int{in[0], in[1], p.OutH, p.OutW}
}

func binBounds(i, in, out int) (lo, hi int) {
	lo = i * in / out
	hi = ((i+1)*in + out - 1) / out
	if hi > in {
		hi = in
	}
	if hi <= lo {
		hi = lo + 1
	}
	return lo, hi
}

// Forward implements Module.
func (p *AdaptiveMaxPool2D) Forward(x *tensor.Tensor) *tensor.Tensor {
	checkRank(x, 4, "AdaptiveMaxPool2D")
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	if h < 1 || w < 1 {
		panic("nn: AdaptiveMaxPool2D empty input")
	}
	p.inShape = append([]int(nil), x.Shape()...)
	out := tensor.New(n, c, p.OutH, p.OutW)
	if cap(p.argmax) < out.Len() {
		p.argmax = make([]int32, out.Len())
	}
	p.argmax = p.argmax[:out.Len()]
	xd := x.Data()
	od := out.Data()
	tensor.ParallelFor(n*c, func(nc int) {
		inBase := nc * h * w
		outBase := nc * p.OutH * p.OutW
		for oy := 0; oy < p.OutH; oy++ {
			y0, y1 := binBounds(oy, h, p.OutH)
			for ox := 0; ox < p.OutW; ox++ {
				x0, x1 := binBounds(ox, w, p.OutW)
				best := float32(math.Inf(-1))
				bestAt := int32(-1)
				for iy := y0; iy < y1; iy++ {
					for ix := x0; ix < x1; ix++ {
						v := xd[inBase+iy*w+ix]
						if v > best {
							best = v
							bestAt = int32(inBase + iy*w + ix)
						}
					}
				}
				od[outBase+oy*p.OutW+ox] = best
				p.argmax[outBase+oy*p.OutW+ox] = bestAt
			}
		}
	})
	return out
}

// Backward implements Module.
func (p *AdaptiveMaxPool2D) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	gradIn := tensor.New(p.inShape...)
	gd := gradOut.Data()
	gi := gradIn.Data()
	for i, at := range p.argmax {
		if at >= 0 {
			gi[at] += gd[i]
		}
	}
	return gradIn
}

// cloneShared implements sharedCloner.
func (p *MaxPool2D) cloneShared() Module { return &MaxPool2D{Geom: p.Geom} }

// Infer implements Inferencer: max pooling without the argmax map.
func (p *MaxPool2D) Infer(x *tensor.Tensor, a *tensor.Arena) *tensor.Tensor {
	checkRank(x, 4, "MaxPool2D.Infer")
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	if err := p.Geom.Validate(h, w); err != nil {
		panic(err)
	}
	oh, ow := p.Geom.OutSize(h, w)
	out := a.Get(n, c, oh, ow)
	t := &p.task
	t.x, t.out = x.Data(), out.Data()
	t.h, t.w, t.oh, t.ow = h, w, oh, ow
	t.geom = p.Geom
	tensor.ParallelRange(n*c, 1, t)
	return out
}

// maxPoolTask computes max pooling for channel planes [lo,hi).
type maxPoolTask struct {
	x, out       []float32
	h, w, oh, ow int
	geom         tensor.ConvGeom
}

// pool2x2 is the 2×2 / stride-2 unpadded window of every pool the
// paper's architectures use, the one geometry with a vector kernel
// (tensor.MaxPool2x2) and the one a conv block can take as its epilogue.
var pool2x2 = tensor.ConvGeom{KH: 2, KW: 2, StrideH: 2, StrideW: 2}

func (t *maxPoolTask) RunRange(lo, hi int) {
	// A plane one row or column short of a window still has an output
	// (ConvGeom.OutSize rounds toward zero), clipped by poolGeneric.
	if t.geom != pool2x2 || 2*t.oh > t.h || 2*t.ow > t.w {
		t.poolGeneric(lo, hi)
		return
	}
	// No window leaves the plane, so the bounds tests of poolGeneric
	// fall away and what is left is four compares in its order — the
	// same value wins, bit for bit, NaN and ±0 included.
	for nc := lo; nc < hi; nc++ {
		tensor.MaxPool2x2(t.out[nc*t.oh*t.ow:(nc+1)*t.oh*t.ow], t.x[nc*t.h*t.w:(nc+1)*t.h*t.w], t.oh, t.ow, t.w)
	}
}

// poolGeneric is max pooling for any window and stride: each output
// starts from -Inf and takes every in-bounds input that compares greater,
// so NaN never wins and an all-NaN window stays -Inf.
func (t *maxPoolTask) poolGeneric(lo, hi int) {
	g := t.geom
	for nc := lo; nc < hi; nc++ {
		inBase := nc * t.h * t.w
		outBase := nc * t.oh * t.ow
		for oy := 0; oy < t.oh; oy++ {
			for ox := 0; ox < t.ow; ox++ {
				best := float32(math.Inf(-1))
				for kh := 0; kh < g.KH; kh++ {
					iy := oy*g.StrideH + kh
					if iy >= t.h {
						break
					}
					for kw := 0; kw < g.KW; kw++ {
						ix := ox*g.StrideW + kw
						if ix >= t.w {
							break
						}
						if v := t.x[inBase+iy*t.w+ix]; v > best {
							best = v
						}
					}
				}
				t.out[outBase+oy*t.ow+ox] = best
			}
		}
	}
}

// cloneShared implements sharedCloner.
func (p *AdaptiveMaxPool2D) cloneShared() Module {
	return &AdaptiveMaxPool2D{OutH: p.OutH, OutW: p.OutW}
}

// Infer implements Inferencer: adaptive max pooling without the argmax map.
func (p *AdaptiveMaxPool2D) Infer(x *tensor.Tensor, a *tensor.Arena) *tensor.Tensor {
	checkRank(x, 4, "AdaptiveMaxPool2D.Infer")
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	if h < 1 || w < 1 {
		panic("nn: AdaptiveMaxPool2D empty input")
	}
	out := a.Get(n, c, p.OutH, p.OutW)
	t := &p.task
	t.x, t.out = x.Data(), out.Data()
	t.setBins(h, w, p.OutH, p.OutW)
	tensor.ParallelRange(n*c, 1, t)
	return out
}

// adaptivePoolTask computes adaptive pooling for channel planes [lo,hi).
// The bins depend on the shapes alone, so their bounds — two integer
// divisions each — are tabulated once per (h, w, oh, ow) instead of
// being recomputed for every output of every plane: rows[2·oy] and
// rows[2·oy+1] are binBounds(oy, h, oh), cols likewise.
type adaptivePoolTask struct {
	x, out       []float32
	h, w, oh, ow int
	rows, cols   []int
}

func (t *adaptivePoolTask) setBins(h, w, oh, ow int) {
	if t.h == h && t.w == w && t.oh == oh && t.ow == ow && len(t.rows) == 2*oh {
		return
	}
	t.h, t.w, t.oh, t.ow = h, w, oh, ow
	t.rows, t.cols = t.rows[:0], t.cols[:0]
	for oy := 0; oy < oh; oy++ {
		y0, y1 := binBounds(oy, h, oh)
		t.rows = append(t.rows, y0, y1)
	}
	for ox := 0; ox < ow; ox++ {
		x0, x1 := binBounds(ox, w, ow)
		t.cols = append(t.cols, x0, x1)
	}
}

func (t *adaptivePoolTask) RunRange(lo, hi int) {
	for nc := lo; nc < hi; nc++ {
		in := t.x[nc*t.h*t.w : (nc+1)*t.h*t.w]
		out := t.out[nc*t.oh*t.ow : (nc+1)*t.oh*t.ow]
		for oy := 0; oy < t.oh; oy++ {
			y0, y1 := t.rows[2*oy], t.rows[2*oy+1]
			for ox := 0; ox < t.ow; ox++ {
				x0, x1 := t.cols[2*ox], t.cols[2*ox+1]
				best := float32(math.Inf(-1))
				for iy := y0; iy < y1; iy++ {
					for _, v := range in[iy*t.w+x0 : iy*t.w+x1] {
						if v > best {
							best = v
						}
					}
				}
				out[oy*t.ow+ox] = best
			}
		}
	}
}
