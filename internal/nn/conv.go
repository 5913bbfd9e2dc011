package nn

import (
	"fmt"
	"math/rand"

	"drainnet/internal/tensor"
)

// ConvAlgo selects the convolution implementation.
type ConvAlgo int

const (
	// ConvIm2Col lowers the convolution to a matrix multiply (default;
	// fastest for the layer sizes in this repo).
	ConvIm2Col ConvAlgo = iota
	// ConvDirect computes the convolution with direct nested loops. Kept
	// for the im2col-vs-direct ablation (DESIGN.md §5.3).
	ConvDirect
)

// Conv2D is a 2-D convolution over N×C×H×W input producing N×OC×OH×OW.
type Conv2D struct {
	InC, OutC int
	Geom      tensor.ConvGeom
	Algo      ConvAlgo

	Weight *Param // OC×C×KH×KW
	Bias   *Param // OC

	// forward cache
	inShape []int
	cols    []*tensor.Tensor // per-sample lowered input (im2col path)
	input   *tensor.Tensor   // retained for the direct path

	// inference fast path: weights packed once (shared across replicas)
	// and reusable task descriptors so Infer dispatches allocation-free.
	packed  *tensor.Packed
	flat    convFlatTask
	lowered convLoweredTask

	// per-bucket kernel choice (autotuner-selected; im2col by default)
	// plus the alternate weight layouts those kernels read. Packed
	// layouts are immutable and shared across replicas; task descriptors
	// are per-replica.
	kernB1, kernBN ConvKernel
	wino           *tensor.Winograd
	nchwc          *tensor.PackedNCHWc
	winoBatch      winoBatchTask
	winoIn         winoInTask
	winoMul        winoMulTask
	winoOut        winoOutTask
	nchwcBatch     nchwcBatchTask
	nchwcB1        nchwcBlockTask
	directBatch    directBatchTask
	directB1       directChanTask

	// spatial mask spec for KernelMasked (set via SetMask): band height in
	// output rows, the mean-abs-deviation energy threshold gating each
	// band, shared per-(out,in)-channel kernel sums (wsum) plus 2D
	// prefix-sum tables over kernel taps (wpre) for the flat-response
	// fills, and the shared cumulative skip counters.
	maskBand    int
	maskThresh  float32
	maskStats   *MaskStats
	wsum        []float32
	wpre        []float32
	maskedBands maskedBandTask
}

// NewConv2D creates a convolution layer with He initialization. Kernel is
// square (k×k) with the given stride; padding defaults to "same-ish"
// (k/2) which preserves spatial size at stride 1, matching the paper's
// architecture notation C_{filters,k,stride}.
func NewConv2D(rng *rand.Rand, inC, outC, k, stride int) *Conv2D {
	return NewConv2DPad(rng, inC, outC, k, stride, k/2)
}

// NewConv2DPad creates a convolution layer with explicit padding.
func NewConv2DPad(rng *rand.Rand, inC, outC, k, stride, pad int) *Conv2D {
	c := &Conv2D{
		InC:    inC,
		OutC:   outC,
		Geom:   tensor.ConvGeom{KH: k, KW: k, StrideH: stride, StrideW: stride, PadH: pad, PadW: pad},
		Weight: NewParam(fmt.Sprintf("conv%dx%d_w", outC, k), outC, inC, k, k),
		Bias:   NewParam(fmt.Sprintf("conv%dx%d_b", outC, k), outC),
	}
	c.Weight.Value.KaimingInit(rng, inC*k*k)
	return c
}

// Params implements Module.
func (c *Conv2D) Params() []*Param { return []*Param{c.Weight, c.Bias} }

// OutShape implements Module.
func (c *Conv2D) OutShape(in []int) []int {
	oh, ow := c.Geom.OutSize(in[2], in[3])
	return []int{in[0], c.OutC, oh, ow}
}

// Forward implements Module.
func (c *Conv2D) Forward(x *tensor.Tensor) *tensor.Tensor {
	checkRank(x, 4, "Conv2D")
	n, ch, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	if ch != c.InC {
		panic(fmt.Sprintf("nn: Conv2D expects %d input channels, got %d", c.InC, ch))
	}
	if err := c.Geom.Validate(h, w); err != nil {
		panic(err)
	}
	c.inShape = append([]int(nil), x.Shape()...)
	oh, ow := c.Geom.OutSize(h, w)
	out := tensor.New(n, c.OutC, oh, ow)

	if c.Algo == ConvDirect {
		c.input = x
		c.forwardDirect(x, out)
		return out
	}

	wmat := c.Weight.Value.Reshape(c.OutC, c.InC*c.Geom.KH*c.Geom.KW)
	if cap(c.cols) < n {
		c.cols = make([]*tensor.Tensor, n)
	}
	// Release per-sample buffers beyond this batch so the cache tracks the
	// current batch size instead of pinning the largest batch ever seen.
	for i := n; i < cap(c.cols); i++ {
		c.cols[:cap(c.cols)][i] = nil
	}
	c.cols = c.cols[:n]
	outStride := c.OutC * oh * ow
	tensor.ParallelFor(n, func(i int) {
		img := tensor.FromSlice(x.Data()[i*ch*h*w:(i+1)*ch*h*w], ch, h, w)
		if c.cols[i] == nil || c.cols[i].Dim(0) != wmat.Dim(1) || c.cols[i].Dim(1) != oh*ow {
			c.cols[i] = tensor.New(wmat.Dim(1), oh*ow)
		}
		tensor.Im2ColInto(c.cols[i], img, c.Geom)
		res := tensor.FromSlice(out.Data()[i*outStride:(i+1)*outStride], c.OutC, oh*ow)
		tensor.MatMulInto(res, wmat, c.cols[i])
		// Add bias per output channel.
		for o := 0; o < c.OutC; o++ {
			b := c.Bias.Value.Data()[o]
			row := res.Data()[o*oh*ow : (o+1)*oh*ow]
			for j := range row {
				row[j] += b
			}
		}
	})
	return out
}

func (c *Conv2D) forwardDirect(x, out *tensor.Tensor) {
	n := x.Dim(0)
	h, w := x.Dim(2), x.Dim(3)
	oh, ow := c.Geom.OutSize(h, w)
	g := c.Geom
	tensor.ParallelFor(n, func(i int) {
		for o := 0; o < c.OutC; o++ {
			bias := c.Bias.Value.Data()[o]
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					s := bias
					for ch := 0; ch < c.InC; ch++ {
						for kh := 0; kh < g.KH; kh++ {
							iy := oy*g.StrideH - g.PadH + kh
							if iy < 0 || iy >= h {
								continue
							}
							for kw := 0; kw < g.KW; kw++ {
								ix := ox*g.StrideW - g.PadW + kw
								if ix < 0 || ix >= w {
									continue
								}
								s += c.Weight.Value.At(o, ch, kh, kw) * x.At(i, ch, iy, ix)
							}
						}
					}
					out.Set(s, i, o, oy, ox)
				}
			}
		}
	})
}

// Backward implements Module.
func (c *Conv2D) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	checkRank(gradOut, 4, "Conv2D.Backward")
	n, ch, h, w := c.inShape[0], c.inShape[1], c.inShape[2], c.inShape[3]
	oh, ow := c.Geom.OutSize(h, w)
	gradIn := tensor.New(n, ch, h, w)

	if c.Algo == ConvDirect {
		c.backwardDirect(gradOut, gradIn)
		return gradIn
	}

	wmat := c.Weight.Value.Reshape(c.OutC, c.InC*c.Geom.KH*c.Geom.KW)
	outStride := c.OutC * oh * ow
	inStride := ch * h * w

	// Weight/bias gradients are accumulated across samples; do that part
	// serially to avoid racing on the shared Grad tensors, but compute the
	// per-sample input gradients in parallel first.
	dcols := make([]*tensor.Tensor, n)
	tensor.ParallelFor(n, func(i int) {
		g := tensor.FromSlice(gradOut.Data()[i*outStride:(i+1)*outStride], c.OutC, oh*ow)
		// dCols = Wᵀ · dOut
		dcols[i] = tensor.MatMulTransA(wmat, g)
		gi := tensor.FromSlice(gradIn.Data()[i*inStride:(i+1)*inStride], ch, h, w)
		tensor.Col2ImInto(gi, dcols[i], c.Geom)
	})
	dwmat := c.Weight.Grad.Reshape(c.OutC, c.InC*c.Geom.KH*c.Geom.KW)
	for i := 0; i < n; i++ {
		g := tensor.FromSlice(gradOut.Data()[i*outStride:(i+1)*outStride], c.OutC, oh*ow)
		// dW += dOut · colsᵀ
		dw := tensor.MatMulTransB(g, c.cols[i])
		dwmat.AddScaled(dw, 1)
		// dB += row sums of dOut
		for o := 0; o < c.OutC; o++ {
			var s float64
			row := g.Data()[o*oh*ow : (o+1)*oh*ow]
			for _, v := range row {
				s += float64(v)
			}
			c.Bias.Grad.Data()[o] += float32(s)
		}
	}
	return gradIn
}

func (c *Conv2D) backwardDirect(gradOut, gradIn *tensor.Tensor) {
	n := c.inShape[0]
	h, w := c.inShape[2], c.inShape[3]
	oh, ow := c.Geom.OutSize(h, w)
	g := c.Geom
	x := c.input
	for i := 0; i < n; i++ {
		for o := 0; o < c.OutC; o++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					gv := gradOut.At(i, o, oy, ox)
					if gv == 0 {
						continue
					}
					c.Bias.Grad.Data()[o] += gv
					for ch := 0; ch < c.InC; ch++ {
						for kh := 0; kh < g.KH; kh++ {
							iy := oy*g.StrideH - g.PadH + kh
							if iy < 0 || iy >= h {
								continue
							}
							for kw := 0; kw < g.KW; kw++ {
								ix := ox*g.StrideW - g.PadW + kw
								if ix < 0 || ix >= w {
									continue
								}
								c.Weight.Grad.Data()[((o*c.InC+ch)*g.KH+kh)*g.KW+kw] += gv * x.At(i, ch, iy, ix)
								gradIn.Data()[((i*c.InC+ch)*h+iy)*w+ix] += gv * c.Weight.Value.At(o, ch, kh, kw)
							}
						}
					}
				}
			}
		}
	}
}

// prepareInference packs the weight layouts the selected kernels read
// (panel layout for im2col, transformed/blocked layouts for the tuned
// variants). Packed state is immutable and shared by every replica
// cloned from this layer.
func (c *Conv2D) prepareInference() {
	if c.Algo != ConvIm2Col {
		return
	}
	c.ensureKernel(KernelIm2Col)
	c.ensureKernel(c.kernB1)
	c.ensureKernel(c.kernBN)
}

// cloneShared implements sharedCloner: weights, bias and packed panels
// are shared; forward caches and task descriptors are fresh.
func (c *Conv2D) cloneShared() Module {
	return &Conv2D{
		InC:        c.InC,
		OutC:       c.OutC,
		Geom:       c.Geom,
		Algo:       c.Algo,
		Weight:     c.Weight,
		Bias:       c.Bias,
		packed:     c.packed,
		kernB1:     c.kernB1,
		kernBN:     c.kernBN,
		wino:       c.wino,
		nchwc:      c.nchwc,
		maskBand:   c.maskBand,
		maskThresh: c.maskThresh,
		maskStats:  c.maskStats,
		wsum:       c.wsum,
		wpre:       c.wpre,
	}
}

// Infer implements Inferencer.
func (c *Conv2D) Infer(x *tensor.Tensor, a *tensor.Arena) *tensor.Tensor {
	return c.inferBlock(x, a, false, nil)
}

// inferFused implements fusedInferencer: the conv with a following ReLU
// folded into its epilogue.
func (c *Conv2D) inferFused(x *tensor.Tensor, a *tensor.Arena, relu bool) *tensor.Tensor {
	return c.inferBlock(x, a, relu, nil)
}

// flatRoute reports whether a batch of n samples takes the flat-shifted
// route of inferBlock: the default kernel on a stride-1 geometry. Only
// that route can take a following max-pool as its epilogue.
func (c *Conv2D) flatRoute(n int) bool {
	return c.Algo == ConvIm2Col && c.kernelFor(n) == KernelIm2Col && c.Geom.StrideH == 1 && c.Geom.StrideW == 1
}

// kernelFor returns the kernel serving a batch of n samples: the
// autotuner picks the fastest measured variant per (layer, batch
// bucket); im2col is the default.
func (c *Conv2D) kernelFor(n int) ConvKernel {
	if n == 1 {
		return c.kernB1
	}
	return c.kernBN
}

// inferBlock is the inference forward of a conv block: the convolution,
// the bias add and an optional ReLU fused into the kernel's store, and —
// when pool is non-nil, which callers may pass only for a 2×2/2 unpadded
// pool on the flat route (Sequential.InferRange) — that max-pool, so the
// returned tensor is the pooled one. No gradient caches are touched and
// nothing is allocated in steady state.
func (c *Conv2D) inferBlock(x *tensor.Tensor, a *tensor.Arena, relu bool, pool *MaxPool2D) *tensor.Tensor {
	checkRank(x, 4, "Conv2D.Infer")
	n, ch, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	if ch != c.InC {
		panic(fmt.Sprintf("nn: Conv2D expects %d input channels, got %d", c.InC, ch))
	}
	if err := c.Geom.Validate(h, w); err != nil {
		panic(err)
	}
	oh, ow := c.Geom.OutSize(h, w)

	c.prepareInference()
	if c.flatRoute(n) {
		return c.inferFlat(x, a, relu, pool, n, ch, h, w, oh, ow)
	}
	out := a.Get(n, c.OutC, oh, ow)

	if c.Algo == ConvDirect {
		c.forwardDirect(x, out)
		if relu {
			for i, v := range out.Data() {
				if !(v > 0) {
					out.Data()[i] = 0
				}
			}
		}
		return out
	}

	switch c.kernelFor(n) {
	case KernelWinograd:
		c.inferWinograd(out, x, a, relu, n, ch, h, w, oh, ow)
		return out
	case KernelNCHWc:
		c.inferNCHWc(out, x, relu, n, ch, h, w, oh, ow)
		return out
	case KernelDirect:
		c.inferDirect(out, x, relu, n, ch, h, w, oh, ow)
		return out
	case KernelMasked:
		c.inferMasked(out, x, a, relu, n, ch, h, w, oh, ow)
		return out
	}

	// The default kernel at stride ≠ 1, which no served architecture
	// has: lower each sample into its range's cols slot and multiply it
	// through the packed micro-kernel while the slot is cache-hot.
	kdim := c.InC * c.Geom.KH * c.Geom.KW
	ohw := oh * ow
	cols := a.Get(n, kdim, ohw)
	lt := &c.lowered
	lt.cols, lt.x, lt.out = cols.Data(), x.Data(), out.Data()
	lt.sampleStride, lt.colStride, lt.outStride = ch*h*w, kdim*ohw, c.OutC*ohw
	lt.c, lt.h, lt.w, lt.geom = ch, h, w, c.Geom
	lt.packed, lt.ohw = c.packed, ohw
	lt.bias, lt.relu = c.Bias.Value.Data(), relu
	tensor.ParallelRange(n, 1, lt)
	return out
}

// convSplitMACs is the work — multiply-adds of one sample's convolution —
// from which a batch-1 block hands its weight panels to the worker pool
// instead of running inline: a region costs a wake-up and a hand-back,
// and on a host whose CPUs share a core's FP ports two threads do not
// run the micro-kernel twice as fast. Set from BenchmarkConvBlock at
// batch 1, `-cpu 2`, on the 2-vCPU host the harness runs on, inline
// against split (this constant at 1<<62 and at 0), range over three
// alternated runs each: the bench model's conv1 (115 k MACs, 2 panels)
// 6.6–8.2 against 8.6–9.4 µs and conv2 (115 k, 4 panels) 7.3–9.1
// against 8.4–13.0; 16→32@20² (1.8 M) 73–89 against 81–109 µs — inline
// wins; 32→32@25² (5.8 M) 258–268 against 197–220 µs, 32→64@25² (11.5 M)
// 431–493 against 323–366, the paper-width 64→128@50² (184 M) 7.0–7.2
// against 4.2–4.7 ms — split wins. The crossover is between 1.8 and
// 5.8 M; every layer of the bench model (115–230 k) stays inline and
// every layer of the paper's models at 100² (23–184 M) splits. A Linear
// batch follows the same rule on n·In·Out, split by row groups; fc0
// (BenchmarkLinearBatch, same method) at batch 1 (123 k MACs) ran
// 6.8–7.5 inline against 12.5–13.1 µs split, and at batch 16 (2.0 M)
// 74–78 against 84–86 µs — inline wins at both.
const convSplitMACs = 1 << 22

// inferFlat is the stride-1 default route: an implicit GEMM over the
// clip itself. Each sample is copied once into a zero-bordered scratch
// (tensor.PadBorder / PadInterior) and every weight panel runs the panel
// micro-kernel over output *flat positions* q = oy·Wp + ox of that
// scratch, the tap of GEMM term k being a constant shift off[k]
// (tensor.FlatOffsets) — the same multiplies and adds, in the same
// order, as the im2col GEMM this replaces, without writing the KH·KW-fold
// lowered copy. The kernel's output rows are Wp wide like its input; the
// block's epilogue reads the OW real columns of each straight out of
// that panel-sized scratch, either through the 2×2 max-pool kernel or as
// row copies, so the dense result is all that reaches the arena.
//
// Batches go to the pool by sample, one padded and one panel slot per
// range. A single sample runs inline below convSplitMACs and by panel
// ranges above it, each range pooling its own channels.
func (c *Conv2D) inferFlat(x *tensor.Tensor, a *tensor.Arena, relu bool, pool *MaxPool2D, n, ch, h, w, oh, ow int) *tensor.Tensor {
	g := c.Geom
	t := &c.flat
	t.pool = pool != nil
	t.doh, t.dow = oh, ow
	if t.pool {
		if oh < 2 || ow < 2 {
			// A clipped window (MaxPool2D.Infer): not the epilogue's.
			return pool.Infer(c.inferFlat(x, a, relu, nil, n, ch, h, w, oh, ow), a)
		}
		t.doh, t.dow = pool.Geom.OutSize(oh, ow)
	}
	out := a.Get(n, c.OutC, t.doh, t.dow)

	hp, wp := h+2*g.PadH, w+2*g.PadW
	if t.h != h || t.w != w || len(t.off) == 0 {
		t.off = tensor.FlatOffsets(t.off, ch, hp, wp, g.KH, g.KW)
	}
	t.c, t.h, t.w, t.padH, t.padW = ch, h, w, g.PadH, g.PadW
	t.wp, t.oh, t.ow, t.outC = wp, oh, ow, c.OutC
	t.packed, t.bias, t.relu = c.packed, c.Bias.Value.Data(), relu
	t.x, t.out = x.Data(), out.Data()
	t.padLen = tensor.PaddedLen(ch, h, w, g.PadH, g.PadW)
	panelLen := tensor.PanelRows * oh * wp

	if n > 1 {
		t.byPanel = false
		t.scratch = a.Get(n, t.padLen+panelLen).Data()
		tensor.ParallelRange(n, 1, t)
		return out
	}
	t.byPanel = true
	panels, slots := c.packed.Panels(), 1
	split := c.OutC*ch*g.KH*g.KW*oh*ow >= convSplitMACs
	if split {
		slots = panels // a strided slot per range, at most one range a panel
	}
	t.scratch = a.Get(t.padLen + slots*panelLen).Data()
	t.pad(t.scratch, 0, true)
	if split {
		tensor.ParallelRange(panels, 1, t)
	} else {
		t.RunRange(0, panels)
	}
	return out
}

// convFlatTask is the pool task of inferFlat. With byPanel unset an
// index is a sample and a range owns the scratch slot of its first
// sample — padded input, then one panel of strided output — for all of
// its samples (ranges are disjoint, so the slot is this call's alone).
// With byPanel set there is one sample, already padded at the head of
// scratch, an index is a weight panel, and a range owns the strided slot
// of its first panel.
type convFlatTask struct {
	x, out, scratch []float32
	off             []int // FlatOffsets for the current (h, w)
	packed          *tensor.Packed
	bias            []float32
	relu, pool      bool
	byPanel         bool

	c, h, w, padH, padW int // input
	wp, oh, ow, outC    int // padded row width, conv output
	doh, dow            int // dense output: oh×ow, or pooled
	padLen              int
}

func (t *convFlatTask) RunRange(lo, hi int) {
	panelLen := tensor.PanelRows * t.oh * t.wp
	if t.byPanel {
		strided := t.scratch[t.padLen+lo*panelLen:][:panelLen]
		t.panels(t.out, t.scratch[:t.padLen], strided, lo, hi)
		return
	}
	slot := t.scratch[lo*(t.padLen+panelLen):][:t.padLen+panelLen]
	outStride := t.outC * t.doh * t.dow
	for i := lo; i < hi; i++ {
		t.pad(slot, i, i == lo)
		t.panels(t.out[i*outStride:(i+1)*outStride], slot[:t.padLen], slot[t.padLen:], 0, t.packed.Panels())
	}
}

// pad copies sample i into the padded buffer at the head of slot. The
// border is zeroed on a slot's first use in a call and not again: arena
// memory arrives with unspecified contents, and the copies that follow
// write the interior only.
func (t *convFlatTask) pad(slot []float32, i int, first bool) {
	if first {
		tensor.PadBorder(slot[:t.padLen], t.c, t.h, t.w, t.padH, t.padW)
	}
	per := t.c * t.h * t.w
	tensor.PadInterior(slot[:t.padLen], t.x[i*per:(i+1)*per], t.c, t.h, t.w, t.padH, t.padW)
}

// panels computes weight panels [p0, p1) of one sample: each panel's
// four channels go through the micro-kernel into strided (rows oh·wp
// apart, wp−ow seam positions a row that are computed and never read)
// and from there, while they are cache-hot, into the dense output.
func (t *convFlatTask) panels(out, padded, strided []float32, p0, p1 int) {
	n := t.oh * t.wp
	nq := n - (t.wp - t.ow)
	plane := t.doh * t.dow
	for pi := p0; pi < p1; pi++ {
		t.packed.MulPanelFlat(strided, padded, t.off, n, nq, t.bias, t.relu, pi)
		ch0 := pi * tensor.PanelRows
		for r := 0; r < min(tensor.PanelRows, t.outC-ch0); r++ {
			dst := out[(ch0+r)*plane : (ch0+r+1)*plane]
			src := strided[r*n : (r+1)*n]
			if t.pool {
				tensor.MaxPool2x2(dst, src, t.doh, t.dow, t.wp)
				continue
			}
			for oy := 0; oy < t.oh; oy++ {
				copy(dst[oy*t.ow:(oy+1)*t.ow], src[oy*t.wp:])
			}
		}
	}
}

// convLoweredTask processes whole samples [lo,hi) of a batch on the
// lowered route: each sample is lowered with Im2ColSlice and immediately
// multiplied through the packed micro-kernel while its cols region is
// cache-hot. Every sample of the range is lowered into the cols slot of
// sample lo — ranges are disjoint, so that slot belongs to this call
// alone — which keeps one kdim×ohw region hot instead of streaming n of
// them through the cache.
type convLoweredTask struct {
	cols, x, out                       []float32
	sampleStride, colStride, outStride int
	c, h, w                            int
	geom                               tensor.ConvGeom
	packed                             *tensor.Packed
	ohw                                int
	bias                               []float32
	relu                               bool
}

func (t *convLoweredTask) RunRange(lo, hi int) {
	cols := t.cols[lo*t.colStride : (lo+1)*t.colStride]
	for i := lo; i < hi; i++ {
		tensor.Im2ColSlice(cols, t.x[i*t.sampleStride:(i+1)*t.sampleStride],
			t.c, t.h, t.w, t.geom)
		t.packed.MulPanelsInto(t.out[i*t.outStride:(i+1)*t.outStride],
			cols, t.ohw, t.bias, t.relu, 0, t.packed.Panels())
	}
}
