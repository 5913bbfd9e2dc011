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
	packed   *tensor.Packed
	colsTask convColsTask
	gemmTask convGemmTask

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
	maskedBatch maskedBatchTask
	maskedB1    maskedBandTask
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
	return c.inferFused(x, a, false)
}

// inferFused is the inference forward: im2col lowering of every sample
// into one arena buffer, then the packed micro-kernel with the bias add
// and optional ReLU fused into its epilogue. No gradient caches are
// touched and nothing is allocated in steady state.
func (c *Conv2D) inferFused(x *tensor.Tensor, a *tensor.Arena, relu bool) *tensor.Tensor {
	checkRank(x, 4, "Conv2D.Infer")
	n, ch, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	if ch != c.InC {
		panic(fmt.Sprintf("nn: Conv2D expects %d input channels, got %d", c.InC, ch))
	}
	if err := c.Geom.Validate(h, w); err != nil {
		panic(err)
	}
	oh, ow := c.Geom.OutSize(h, w)
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

	c.prepareInference()

	// Per-bucket kernel dispatch: the autotuner picks the fastest
	// measured variant per (layer, batch bucket); im2col is the default.
	kern := c.kernBN
	if n == 1 {
		kern = c.kernB1
	}
	switch kern {
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

	kdim := c.InC * c.Geom.KH * c.Geom.KW
	ohw := oh * ow

	if n > 1 {
		// Multi-sample batches: each sample's lowering is consumed by its
		// gemm immediately, while the cols buffer is still cache-hot, and
		// the batch dimension provides the parallelism. Lowering every
		// sample first and gemm-ing second streams the whole n×kdim×ohw
		// buffer through cache twice and costs ~10% at batch 16; a pool
		// range goes one further and reuses one sample's slot for all of
		// its samples (convColsTask), so n slots is the most it can need.
		cols := a.Get(n, kdim, ohw)
		ct := &c.colsTask
		ct.cols, ct.x, ct.out = cols.Data(), x.Data(), out.Data()
		ct.sampleStride, ct.colStride, ct.outStride = ch*h*w, kdim*ohw, c.OutC*ohw
		ct.c, ct.h, ct.w, ct.geom = ch, h, w, c.Geom
		ct.packed, ct.ohw = c.packed, ohw
		ct.bias, ct.relu = c.Bias.Value.Data(), relu
		tensor.ParallelRange(n, 1, ct)
		return out
	}

	// Batch 1: the only parallelism is across weight panels, so lower
	// once and spread the gemm panel-by-panel over the pool.
	cols := a.Get(kdim, ohw)
	tensor.Im2ColSlice(cols.Data(), x.Data(), ch, h, w, c.Geom)
	gt := &c.gemmTask
	gt.packed = c.packed
	gt.out, gt.cols = out.Data(), cols.Data()
	gt.outStride, gt.colStride = c.OutC*ohw, kdim*ohw
	gt.panels, gt.ohw = c.packed.Panels(), ohw
	gt.bias, gt.relu = c.Bias.Value.Data(), relu
	tensor.ParallelRange(gt.panels, 1, gt)
	return out
}

// convColsTask processes whole samples [lo,hi) of a batch: each sample
// is lowered with Im2ColSlice and immediately multiplied through the
// packed micro-kernel while its cols region is cache-hot. Every sample
// of the range is lowered into the cols slot of sample lo — ranges are
// disjoint, so that slot belongs to this call alone — which keeps one
// kdim×ohw region hot instead of streaming n of them through the cache.
type convColsTask struct {
	cols, x, out                       []float32
	sampleStride, colStride, outStride int
	c, h, w                            int
	geom                               tensor.ConvGeom
	packed                             *tensor.Packed
	ohw                                int
	bias                               []float32
	relu                               bool
}

func (t *convColsTask) RunRange(lo, hi int) {
	cols := t.cols[lo*t.colStride : (lo+1)*t.colStride]
	for i := lo; i < hi; i++ {
		tensor.Im2ColSlice(cols, t.x[i*t.sampleStride:(i+1)*t.sampleStride],
			t.c, t.h, t.w, t.geom)
		t.packed.MulPanelsInto(t.out[i*t.outStride:(i+1)*t.outStride],
			cols, t.ohw, t.bias, t.relu, 0, t.packed.Panels())
	}
}

// convGemmTask runs the packed micro-kernel over a flat (sample, panel)
// index space so panel work balances across the pool even at batch 1.
type convGemmTask struct {
	packed               *tensor.Packed
	out, cols            []float32
	outStride, colStride int
	panels, ohw          int
	bias                 []float32
	relu                 bool
}

func (t *convGemmTask) RunRange(lo, hi int) {
	for idx := lo; idx < hi; {
		i := idx / t.panels
		p0 := idx % t.panels
		p1 := t.panels
		if end := idx + (p1 - p0); end > hi {
			p1 = p0 + (hi - idx)
		}
		t.packed.MulPanelsInto(
			t.out[i*t.outStride:(i+1)*t.outStride],
			t.cols[i*t.colStride:(i+1)*t.colStride],
			t.ohw, t.bias, t.relu, p0, p1)
		idx += p1 - p0
	}
}
