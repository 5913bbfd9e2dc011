package nn

import (
	"fmt"

	"drainnet/internal/tensor"
)

// ConvKernel selects the inference convolution kernel of a Conv2D. The
// choice is per batch bucket (batch 1 vs batch >1) and per layer: the
// autotuner (internal/model) measures every eligible variant on the
// serving host and picks the fastest, with non-bitwise variants gated on
// held-out accuracy. KernelIm2Col is the safe default everywhere.
//
// Kernel choice only affects the inference fast path (Infer/inferFused).
// Forward keeps the training im2col path untouched.
type ConvKernel uint8

const (
	// KernelIm2Col is the default fp32 route through the packed panel
	// GEMM and the bitwise reference for the other variants. At stride 1
	// the GEMM is implicit — the panel kernel reads the zero-bordered
	// clip through a table of tap shifts (Conv2D.inferFlat) and no
	// lowered matrix is written; other strides lower each sample with
	// im2col first. Same terms, same order, same bits either way, so the
	// name and the "im2col" identifier stay.
	KernelIm2Col ConvKernel = iota
	// KernelWinograd runs the F(2×2, 3×3) transform kernels — only
	// eligible for 3×3 stride-1 convs, ~2.25× fewer multiplies, NOT
	// bitwise (accuracy-gated like int8).
	KernelWinograd
	// KernelNCHWc runs the cache-blocked direct kernel on OIhw4o-packed
	// weights: no im2col materialization, bitwise vs the im2col GEMM.
	KernelNCHWc
	// KernelDirect runs the unpacked direct micro-kernel, bitwise vs the
	// im2col GEMM; wins where the channel depth is too small to amortize
	// lowering (first layers).
	KernelDirect
	// KernelMasked is the spatially masked im2col GEMM of the dynamic
	// inference path: per-band input activation energy gates the lowering
	// and matmul of each output-row band, with low-energy bands filled by
	// the layer's flat response. Content-dependent and NOT bitwise
	// (accuracy-gated by the dynamic plan ladder); only eligible once a
	// mask spec is configured with SetMask.
	KernelMasked

	numConvKernels = 5
)

// String returns the kernel's stable identifier, used in cost-cache
// keys, /v1/model reports and telemetry labels.
func (k ConvKernel) String() string {
	switch k {
	case KernelIm2Col:
		return "im2col"
	case KernelWinograd:
		return "winograd"
	case KernelNCHWc:
		return "nchwc"
	case KernelDirect:
		return "direct"
	case KernelMasked:
		return "masked"
	}
	return fmt.Sprintf("kernel(%d)", int(k))
}

// ConvKernels enumerates every kernel variant in a stable order.
func ConvKernels() []ConvKernel {
	return []ConvKernel{KernelIm2Col, KernelWinograd, KernelNCHWc, KernelDirect, KernelMasked}
}

// Exact reports whether the kernel is bit-identical to the im2col GEMM
// reference. Non-exact kernels must pass the held-out accuracy gate
// before serving.
func (k ConvKernel) Exact() bool { return k != KernelWinograd && k != KernelMasked }

// KernelEligible reports whether the layer can run kernel k on its
// geometry. Legacy ConvDirect-algo layers (the §5.3 ablation) keep their
// nested-loop path and are not retargetable.
func (c *Conv2D) KernelEligible(k ConvKernel) bool {
	if c.Algo != ConvIm2Col {
		return false
	}
	switch k {
	case KernelWinograd:
		g := c.Geom
		return g.KH == 3 && g.KW == 3 && g.StrideH == 1 && g.StrideW == 1
	case KernelIm2Col, KernelNCHWc, KernelDirect:
		return true
	case KernelMasked:
		return c.maskBand > 0
	}
	return false
}

// SetKernels selects the serving kernels for the batch-1 and batch->1
// buckets and packs any weight layout the choice needs. Panics on an
// ineligible choice — callers (the autotuner) check KernelEligible.
func (c *Conv2D) SetKernels(b1, bn ConvKernel) {
	if !c.KernelEligible(b1) || !c.KernelEligible(bn) {
		panic(fmt.Sprintf("nn: Conv2D %dx%d cannot run kernels (%s, %s)", c.OutC, c.Geom.KH, b1, bn))
	}
	c.kernB1, c.kernBN = b1, bn
	c.ensureKernel(b1)
	c.ensureKernel(bn)
}

// Kernels reports the layer's selected (batch-1, batch->1) kernels.
func (c *Conv2D) Kernels() (b1, bn ConvKernel) { return c.kernB1, c.kernBN }

// InferFused exposes the fused conv+ReLU inference forward for the
// kernel autotuner's measurement probe, which times a single layer in
// exactly the form the serving chain runs it.
func (c *Conv2D) InferFused(x *tensor.Tensor, a *tensor.Arena, relu bool) *tensor.Tensor {
	return c.inferFused(x, a, relu)
}

// InferFused exposes the fused int8 conv+ReLU forward for the kernel
// autotuner, so int8 competes in the same per-layer measurement as the
// fp32 kernel variants.
func (q *QuantConv2D) InferFused(x *tensor.Tensor, a *tensor.Arena, relu bool) *tensor.Tensor {
	return q.inferFused(x, a, relu)
}

// ensureKernel packs the weight layout kernel k reads, once. Packed
// layouts are immutable and shared by every replica cloned afterwards.
func (c *Conv2D) ensureKernel(k ConvKernel) {
	switch k {
	case KernelIm2Col:
		if c.packed == nil {
			c.packed = tensor.PackMatrix(c.Weight.Value.Reshape(c.OutC, c.InC*c.Geom.KH*c.Geom.KW))
		}
	case KernelWinograd:
		if c.wino == nil {
			c.wino = tensor.PackWinograd(c.Weight.Value)
		}
	case KernelNCHWc:
		if c.nchwc == nil {
			c.nchwc = tensor.PackNCHWc(c.Weight.Value, c.Geom)
		}
	case KernelDirect:
		// Reads the natural weight layout; nothing to pack.
	case KernelMasked:
		// Active bands run the packed panel GEMM; masked bands fill with
		// the flat response, which needs the per-(out,in)-channel kernel
		// sums, plus a 2D prefix-sum table over kernel taps so the
		// padding-clipped pixels can look up the sum of any in-bounds tap
		// rectangle in O(1). All layouts are immutable and shared across
		// replicas.
		if c.packed == nil {
			c.packed = tensor.PackMatrix(c.Weight.Value.Reshape(c.OutC, c.InC*c.Geom.KH*c.Geom.KW))
		}
		if c.wpre == nil {
			kw1 := c.Geom.KW + 1
			blk := (c.Geom.KH + 1) * kw1
			wd := c.Weight.Value.Data()
			wp := make([]float32, c.OutC*c.InC*blk)
			ws := make([]float32, c.OutC*c.InC)
			for oc := 0; oc < c.OutC*c.InC; oc++ {
				src := wd[oc*c.Geom.KH*c.Geom.KW:]
				p := wp[oc*blk:]
				for kh := 0; kh < c.Geom.KH; kh++ {
					var row float32
					for kw := 0; kw < c.Geom.KW; kw++ {
						row += src[kh*c.Geom.KW+kw]
						p[(kh+1)*kw1+kw+1] = p[kh*kw1+kw+1] + row
					}
				}
			}
			for oc := range ws {
				ws[oc] = wp[oc*blk+c.Geom.KH*kw1+c.Geom.KW]
			}
			c.wpre, c.wsum = wp, ws
		}
	}
}

// inferWinograd is the Winograd F(2,3) inference forward. Batches give
// per-sample parallelism (each sample transforms, multiplies and
// inverse-transforms in one pool task, scratch striped per sample);
// batch 1 parallelizes each phase internally — input channels, then the
// 16 per-position GEMMs, then output channels.
func (c *Conv2D) inferWinograd(out, x *tensor.Tensor, a *tensor.Arena, relu bool, n, ch, h, w, oh, ow int) {
	sl := c.wino.ScratchLen(oh, ow)
	bias := c.Bias.Value.Data()
	if n > 1 {
		scr := a.Get(n, sl)
		t := &c.winoBatch
		t.wino = c.wino
		t.out, t.x, t.scratch = out.Data(), x.Data(), scr.Data()
		t.sampleStride, t.outStride, t.scratchStride = ch*h*w, c.OutC*oh*ow, sl
		t.h, t.w, t.padH, t.padW = h, w, c.Geom.PadH, c.Geom.PadW
		t.bias, t.relu = bias, relu
		tensor.ParallelRange(n, 1, t)
		return
	}
	scr := a.Get(sl)
	ty, tx := c.wino.Tiles(oh, ow)
	nT := ty * tx
	v := scr.Data()[:c.wino.Positions()*c.InC*nT]
	m := scr.Data()[c.wino.Positions()*c.InC*nT : sl]

	it := &c.winoIn
	it.wino, it.v, it.x = c.wino, v, x.Data()
	it.h, it.w, it.padH, it.padW = h, w, c.Geom.PadH, c.Geom.PadW
	tensor.ParallelRange(c.InC, 1, it)

	mt := &c.winoMul
	mt.wino, mt.m, mt.v, mt.nT = c.wino, m, v, nT
	tensor.ParallelRange(c.wino.Positions(), 1, mt)

	ot := &c.winoOut
	ot.wino, ot.out, ot.m = c.wino, out.Data(), m
	ot.oh, ot.ow = oh, ow
	ot.bias, ot.relu = bias, relu
	tensor.ParallelRange(c.OutC, 1, ot)
}

// inferNCHWc is the cache-blocked direct inference forward: whole
// samples across the pool for batches, output-channel blocks for batch 1.
// No scratch at all — the kernel accumulates in the output tensor.
func (c *Conv2D) inferNCHWc(out, x *tensor.Tensor, relu bool, n, ch, h, w, oh, ow int) {
	bias := c.Bias.Value.Data()
	if n > 1 {
		t := &c.nchwcBatch
		t.p = c.nchwc
		t.out, t.x = out.Data(), x.Data()
		t.sampleStride, t.outStride = ch*h*w, c.OutC*oh*ow
		t.h, t.w = h, w
		t.bias, t.relu = bias, relu
		tensor.ParallelRange(n, 1, t)
		return
	}
	bt := &c.nchwcB1
	bt.p = c.nchwc
	bt.out, bt.x = out.Data(), x.Data()
	bt.h, bt.w = h, w
	bt.bias, bt.relu = bias, relu
	tensor.ParallelRange(c.nchwc.Blocks(), 1, bt)
}

// inferDirect is the unpacked direct micro-kernel forward: whole samples
// across the pool for batches, output channels for batch 1.
func (c *Conv2D) inferDirect(out, x *tensor.Tensor, relu bool, n, ch, h, w, oh, ow int) {
	bias := c.Bias.Value.Data()
	wt := c.Weight.Value.Data()
	if n > 1 {
		t := &c.directBatch
		t.out, t.x, t.wt = out.Data(), x.Data(), wt
		t.sampleStride, t.outStride = ch*h*w, c.OutC*oh*ow
		t.inC, t.outC, t.h, t.w, t.geom = c.InC, c.OutC, h, w, c.Geom
		t.bias, t.relu = bias, relu
		tensor.ParallelRange(n, 1, t)
		return
	}
	ct := &c.directB1
	ct.out, ct.x, ct.wt = out.Data(), x.Data(), wt
	ct.inC, ct.outC, ct.h, ct.w, ct.geom = c.InC, c.OutC, h, w, c.Geom
	ct.bias, ct.relu = bias, relu
	tensor.ParallelRange(c.OutC, 1, ct)
}

// winoBatchTask convolves whole samples [lo,hi) through the Winograd
// kernel, each sample using its own stripe of the scratch buffer.
type winoBatchTask struct {
	wino                                   *tensor.Winograd
	out, x, scratch                        []float32
	sampleStride, outStride, scratchStride int
	h, w, padH, padW                       int
	bias                                   []float32
	relu                                   bool
}

func (t *winoBatchTask) RunRange(lo, hi int) {
	for i := lo; i < hi; i++ {
		t.wino.ConvInto(t.out[i*t.outStride:(i+1)*t.outStride],
			t.x[i*t.sampleStride:(i+1)*t.sampleStride],
			t.h, t.w, t.padH, t.padW, t.bias, t.relu,
			t.scratch[i*t.scratchStride:(i+1)*t.scratchStride])
	}
}

// winoInTask transforms input channels [lo,hi) into the V buffer (batch 1).
type winoInTask struct {
	wino             *tensor.Winograd
	v, x             []float32
	h, w, padH, padW int
}

func (t *winoInTask) RunRange(lo, hi int) {
	t.wino.TransformInput(t.v, t.x, t.h, t.w, t.padH, t.padW, lo, hi)
}

// winoMulTask runs per-position GEMMs [lo,hi) (batch 1).
type winoMulTask struct {
	wino *tensor.Winograd
	m, v []float32
	nT   int
}

func (t *winoMulTask) RunRange(lo, hi int) {
	t.wino.MulPositions(t.m, t.v, t.nT, lo, hi)
}

// winoOutTask inverse-transforms output channels [lo,hi) (batch 1).
type winoOutTask struct {
	wino   *tensor.Winograd
	out, m []float32
	oh, ow int
	bias   []float32
	relu   bool
}

func (t *winoOutTask) RunRange(lo, hi int) {
	t.wino.TransformOutput(t.out, t.m, t.oh, t.ow, t.bias, t.relu, lo, hi)
}

// nchwcBatchTask convolves whole samples [lo,hi) through the NCHWc kernel.
type nchwcBatchTask struct {
	p                       *tensor.PackedNCHWc
	out, x                  []float32
	sampleStride, outStride int
	h, w                    int
	bias                    []float32
	relu                    bool
}

func (t *nchwcBatchTask) RunRange(lo, hi int) {
	for i := lo; i < hi; i++ {
		t.p.ConvBlocks(t.out[i*t.outStride:(i+1)*t.outStride],
			t.x[i*t.sampleStride:(i+1)*t.sampleStride],
			t.h, t.w, t.bias, t.relu, 0, t.p.Blocks())
	}
}

// nchwcBlockTask convolves output-channel blocks [lo,hi) of one sample.
type nchwcBlockTask struct {
	p      *tensor.PackedNCHWc
	out, x []float32
	h, w   int
	bias   []float32
	relu   bool
}

func (t *nchwcBlockTask) RunRange(lo, hi int) {
	t.p.ConvBlocks(t.out, t.x, t.h, t.w, t.bias, t.relu, lo, hi)
}

// directBatchTask convolves whole samples [lo,hi) through the direct kernel.
type directBatchTask struct {
	out, x, wt              []float32
	sampleStride, outStride int
	inC, outC, h, w         int
	geom                    tensor.ConvGeom
	bias                    []float32
	relu                    bool
}

func (t *directBatchTask) RunRange(lo, hi int) {
	for i := lo; i < hi; i++ {
		tensor.DirectConvChans(t.out[i*t.outStride:(i+1)*t.outStride],
			t.x[i*t.sampleStride:(i+1)*t.sampleStride], t.wt,
			t.inC, t.h, t.w, t.geom, t.outC, t.bias, t.relu, 0, t.outC)
	}
}

// directChanTask convolves output channels [lo,hi) of one sample.
type directChanTask struct {
	out, x, wt      []float32
	inC, outC, h, w int
	geom            tensor.ConvGeom
	bias            []float32
	relu            bool
}

func (t *directChanTask) RunRange(lo, hi int) {
	tensor.DirectConvChans(t.out, t.x, t.wt, t.inC, t.h, t.w, t.geom, t.outC, t.bias, t.relu, lo, hi)
}
