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

	task pyramidTask // inference dispatch, reused across calls
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

// Infer implements Inferencer: adaptive max pooling without the argmax
// map — the one-level case of the SPP pyramid pass.
func (p *AdaptiveMaxPool2D) Infer(x *tensor.Tensor, a *tensor.Arena) *tensor.Tensor {
	checkRank(x, 4, "AdaptiveMaxPool2D.Infer")
	n, c := x.Dim(0), x.Dim(1)
	out := a.Get(n, c, p.OutH, p.OutW)
	p.task.run(x, out.Data(), p.OutH, p.OutW)
	return out
}

// pyramidTask max-pools every plane of an N×C×H×W input into every level
// of a pyramid of adaptive pools, written straight into place: level
// li's OH×OW bins of plane (i, ch) land at out[i·width + c·col +
// ch·OH·OW], which is SPP's concatenated layout (and, with one level at
// col 0, an N×C×OH×OW tensor). One pool region covers the whole batch;
// per sample, each level is one tensor.MaxBins call over its c planes.
// Each bin starts from -Inf and takes, in row-major order, every input
// that compares greater — so NaN never wins, a bin of only NaNs stays
// -Inf and of equal zeros the first one seen stays: the bits Forward's
// argmax loop produces. The bins depend on the shapes alone, so their
// bounds — binBounds, two integer divisions each — are tabulated once
// per (H, W) and reused for every plane of every batch.
type pyramidTask struct {
	x, out      []float32
	c, h, w     int
	width       int
	levels      []pyramidLevel
	bound       []int // the bins' [lo, hi) row and column pairs, per level
	boundsValid bool  // bound holds the levels' bins over an h×w plane
}

// pyramidLevel is one level's output grid and where its bounds and its
// outputs start: rows at bound[rows:], columns at bound[cols:], and the
// level's bins of a sample at c·col, past the coarser levels' c·OH·OW.
type pyramidLevel struct {
	oh, ow, col int
	rows, cols  int
}

// setLevels declares the pyramid: one oh×ow grid per entry of oh and ow.
func (t *pyramidTask) setLevels(oh, ow []int) {
	t.levels = t.levels[:0]
	for i := range oh {
		t.levels = append(t.levels, pyramidLevel{oh: oh[i], ow: ow[i]})
	}
	t.boundsValid = false
}

// run pools x into out as the one-level pyramid oh×ow.
func (t *pyramidTask) run(x *tensor.Tensor, out []float32, oh, ow int) {
	if len(t.levels) != 1 || t.levels[0].oh != oh || t.levels[0].ow != ow {
		t.setLevels([]int{oh}, []int{ow})
	}
	t.runLevels(x, out)
}

// pyramidGrainCells is the least work, in bin reads, that one pool
// chunk of the pyramid pass takes.
const pyramidGrainCells = 1 << 14

// runLevels pools x into every declared level of out. Samples are spread
// over the worker pool in chunks of at least pyramidGrainCells bin
// reads, so a small pyramid (the bench net's sixteen 5×5 planes per
// clip) runs inline instead of paying a region's wake-up for a few
// microseconds of compares.
func (t *pyramidTask) runLevels(x *tensor.Tensor, out []float32) {
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	if h < 1 || w < 1 {
		panic("nn: adaptive max pool of an empty input")
	}
	t.x, t.out, t.c = x.Data(), out, c
	if !t.boundsValid || t.h != h || t.w != w {
		t.setBounds(h, w)
	}
	t.width = len(out) / max(n, 1)
	reads := 0
	for _, l := range t.levels {
		reads += c * l.binReads(t.bound)
	}
	tensor.ParallelRange(n, max(1, pyramidGrainCells/max(reads, 1)), t)
}

// setBounds tabulates every level's bins over an h×w plane and lays the
// levels out one after another per channel.
func (t *pyramidTask) setBounds(h, w int) {
	t.h, t.w, t.boundsValid = h, w, true
	t.bound = t.bound[:0]
	col := 0
	for i := range t.levels {
		l := &t.levels[i]
		l.col = col
		l.rows = len(t.bound)
		for oy := 0; oy < l.oh; oy++ {
			y0, y1 := binBounds(oy, h, l.oh)
			t.bound = append(t.bound, y0, y1)
		}
		l.cols = len(t.bound)
		for ox := 0; ox < l.ow; ox++ {
			x0, x1 := binBounds(ox, w, l.ow)
			t.bound = append(t.bound, x0, x1)
		}
		col += l.oh * l.ow
	}
}

// binReads is how many inputs one plane's pass over the level reads.
func (l *pyramidLevel) binReads(bound []int) int {
	rows, cols := 0, 0
	for oy := 0; oy < l.oh; oy++ {
		rows += bound[l.rows+2*oy+1] - bound[l.rows+2*oy]
	}
	for ox := 0; ox < l.ow; ox++ {
		cols += bound[l.cols+2*ox+1] - bound[l.cols+2*ox]
	}
	return rows * cols
}

// RunRange pools samples [lo, hi): per level, one tensor.MaxBins over
// the sample's c planes.
func (t *pyramidTask) RunRange(lo, hi int) {
	plane, c := t.h*t.w, t.c
	for i := lo; i < hi; i++ {
		in := t.x[i*c*plane : (i+1)*c*plane]
		for li := range t.levels {
			l := &t.levels[li]
			cells := l.oh * l.ow
			tensor.MaxBins(t.out[i*t.width+l.col*c:], cells, in, plane, c, t.h, t.w,
				t.bound[l.rows:l.rows+2*l.oh], t.bound[l.cols:l.cols+2*l.ow])
		}
	}
}
