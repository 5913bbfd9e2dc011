package nn

import (
	"fmt"
	"math"

	"drainnet/internal/tensor"
)

// Post-training int8 quantization of the inference fast path. Weights
// use symmetric per-output-channel scales (tensor.QuantizeSymmetricPerRow);
// activations use one affine scale/zero-point per layer input, derived
// from min/max observers run over a calibration set. QuantizeForInference
// rewrites a Sequential into a copy whose conv and linear layers run the
// packed int8 kernels, falling back to the fp32 layer wherever
// quantization is hostile (direct-algorithm convs, layers whose
// calibration never saw data or saw a degenerate range, all-zero
// weights). SPP, pooling, ReLU and concat always stay fp32 — they are
// cheap, max-pooling commutes with the monotone quantization map anyway,
// and keeping them in fp32 means the quantized network consumes and
// produces plain float32 tensors everywhere a caller can see.

// MinMaxObserver accumulates the running min/max of every activation
// slice it observes. One observer corresponds to one quantized layer
// input.
type MinMaxObserver struct {
	Min, Max float32
	Seen     bool
}

// Observe folds a batch of activations into the running range.
func (o *MinMaxObserver) Observe(d []float32) {
	for _, v := range d {
		if !o.Seen {
			o.Min, o.Max, o.Seen = v, v, true
			continue
		}
		if v < o.Min {
			o.Min = v
		}
		if v > o.Max {
			o.Max = v
		}
	}
}

// QParams derives the affine int8 parameters for the observed range. The
// range is widened to include 0 so the zero point represents real 0.0
// exactly — required for the int8 im2col to pad borders losslessly. ok
// is false when the observer never saw data or the range is degenerate
// (a single value, NaN, or ±Inf), which callers treat as
// quantization-hostile.
func (o *MinMaxObserver) QParams() (scale float32, zp int32, ok bool) {
	if !o.Seen {
		return 0, 0, false
	}
	lo, hi := o.Min, o.Max
	if lo > 0 {
		lo = 0
	}
	if hi < 0 {
		hi = 0
	}
	if !(hi > lo) { // also rejects NaN
		return 0, 0, false
	}
	scale = (hi - lo) / 255
	if scale == 0 || math.IsInf(float64(scale), 0) {
		return 0, 0, false
	}
	// zp solves round(lo/scale) + zp = -128, rounding half away from zero;
	// lo ≤ 0 so -lo/scale is the non-negative magnitude.
	zp = -128 + int32(-lo/scale+0.5)
	if zp < -128 {
		zp = -128
	} else if zp > 127 {
		zp = 127
	}
	return scale, zp, true
}

// Calibration holds the activation observers gathered over a calibration
// set, keyed by module index within the observed Sequential.
type Calibration struct {
	obs map[int]*MinMaxObserver
}

// Observer returns the observer for module index i, or nil.
func (c *Calibration) Observer(i int) *MinMaxObserver {
	if c == nil {
		return nil
	}
	return c.obs[i]
}

// Calibrate runs the calibration batches through s in inference mode and
// records the input range of every Conv2D and Linear. The walk mirrors
// Sequential.Infer without the ReLU fusion — fusion changes where the
// clamp happens, not what any layer consumes, so the observed ranges are
// exactly the serving-time ones.
func Calibrate(s *Sequential, batches []*tensor.Tensor) *Calibration {
	cal := &Calibration{obs: make(map[int]*MinMaxObserver)}
	a := tensor.NewArena()
	for _, x := range batches {
		a.Reset()
		cur := x
		for i, m := range s.mods {
			switch m.(type) {
			case *Conv2D, *Linear:
				o := cal.obs[i]
				if o == nil {
					o = &MinMaxObserver{}
					cal.obs[i] = o
				}
				o.Observe(cur.Data())
			}
			if inf, ok := m.(Inferencer); ok {
				cur = inf.Infer(cur, a)
			} else {
				cur = m.Forward(cur)
			}
		}
	}
	return cal
}

// underlier is implemented by quantized wrappers; Underlying returns the
// fp32 layer the wrapper replaces.
type underlier interface{ Underlying() Module }

// Unwrap returns the fp32 layer behind a quantized wrapper, or m itself.
// Structural validators (the batcher's config check, the graph compiler's
// shape checks) see the original layer types through this.
func Unwrap(m Module) Module {
	if u, ok := m.(underlier); ok {
		return u.Underlying()
	}
	return m
}

// QuantReport summarizes a QuantizeForInference rewrite.
type QuantReport struct {
	Quantized int // conv/linear layers now running the int8 kernels
	Fallback  int // quantization-hostile conv/linear layers kept fp32
}

// QuantizeForInference builds an inference copy of s whose Conv2D and
// Linear layers run the packed int8 kernels, using cal for the
// activation ranges. Hostile layers silently keep their fp32 kernels and
// are counted in the report. All other layers are shared-cloned, so the
// returned network is safe to run concurrently with s and with other
// clones. The quantized layers support Infer, fused inference and
// Forward — but not Backward.
func QuantizeForInference(s *Sequential, cal *Calibration) (*Sequential, QuantReport, error) {
	var rep QuantReport
	PrepareInferenceParallel(s)
	out := &Sequential{mods: make([]Module, len(s.mods))}
	// Each layer's rewrite (weight quantization + int8 packing, or a
	// shared clone) touches only that layer, so the per-layer work spreads
	// across the worker pool; the report and error fold serially after.
	type rewrite struct {
		mod                 Module
		quantized, fallback bool
		err                 error
	}
	res := make([]rewrite, len(s.mods))
	tensor.ParallelFor(len(s.mods), func(i int) {
		m := s.mods[i]
		switch t := m.(type) {
		case *Conv2D:
			if qc, ok := newQuantConv2D(t, cal.Observer(i)); ok {
				res[i] = rewrite{mod: qc, quantized: true}
				return
			}
			res[i].fallback = true
		case *Linear:
			if ql, ok := newQuantLinear(t, cal.Observer(i)); ok {
				res[i] = rewrite{mod: ql, quantized: true}
				return
			}
			res[i].fallback = true
		}
		c, err := CloneShared(m)
		res[i].mod, res[i].err = c, err
	})
	for i, r := range res {
		if r.err != nil {
			return nil, rep, fmt.Errorf("nn: quantize: %w", r.err)
		}
		if r.quantized {
			rep.Quantized++
		}
		if r.fallback {
			rep.Fallback++
		}
		out.mods[i] = r.mod
	}
	return out, rep, nil
}

// QuantConv2D runs a Conv2D through the int8 pipeline: per-sample affine
// quantization of the input, int8 im2col (borders padded with the zero
// point), the packed int8 GEMM with int32 accumulation, and a fused
// requantize+bias+ReLU epilogue back to float32. Weights are quantized
// per output channel; immutable state (packed panels, scales) is shared
// across replicas.
type QuantConv2D struct {
	base     *Conv2D
	packed   *tensor.PackedInt8
	inInv    float32   // 1 / activation scale
	inZP     int32     // activation zero point
	outScale []float32 // per-row weightScale · activationScale

	colsTask qconvColsTask
	gemmTask qconvPanelTask
	fwd      *tensor.Arena // Forward-mode scratch
}

// newQuantConv2D quantizes c against its observed input range. ok is
// false for hostile layers: direct-algorithm convs, missing/degenerate
// calibration, or an all-zero weight tensor.
func newQuantConv2D(c *Conv2D, obs *MinMaxObserver) (*QuantConv2D, bool) {
	if c.Algo != ConvIm2Col || obs == nil {
		return nil, false
	}
	scale, zp, ok := obs.QParams()
	if !ok {
		return nil, false
	}
	wq, ws := tensor.QuantizeSymmetricPerRow(
		c.Weight.Value.Reshape(c.OutC, c.InC*c.Geom.KH*c.Geom.KW))
	live := false
	outScale := make([]float32, c.OutC)
	for r, s := range ws {
		outScale[r] = s * scale
		if s != 0 {
			live = true
		}
	}
	if !live {
		return nil, false
	}
	return &QuantConv2D{
		base:     c,
		packed:   tensor.PackInt8(wq, c.OutC, c.InC*c.Geom.KH*c.Geom.KW),
		inInv:    1 / scale,
		inZP:     zp,
		outScale: outScale,
		fwd:      tensor.NewArena(),
	}, true
}

// Underlying implements the unwrap protocol.
func (q *QuantConv2D) Underlying() Module { return q.base }

// Params implements Module (the fp32 parameters remain the source of truth).
func (q *QuantConv2D) Params() []*Param { return q.base.Params() }

// OutShape implements Module.
func (q *QuantConv2D) OutShape(in []int) []int { return q.base.OutShape(in) }

// Forward implements Module by running the int8 inference kernels into a
// layer-owned arena, so a Forward walk of a quantized network
// (model.Detect, model.Scan) sees exactly the quantized serving numbers.
// The output is valid until this layer's next Forward call.
func (q *QuantConv2D) Forward(x *tensor.Tensor) *tensor.Tensor {
	q.fwd.Reset()
	return q.inferFused(x, q.fwd, false)
}

// Backward implements Module. Quantized layers are inference-only.
func (q *QuantConv2D) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	panic("nn: QuantConv2D is inference-only and does not support Backward")
}

// cloneShared implements sharedCloner: packed codes, scales and the base
// layer are shared; task descriptors and scratch are fresh.
func (q *QuantConv2D) cloneShared() Module {
	return &QuantConv2D{
		base:     q.base,
		packed:   q.packed,
		inInv:    q.inInv,
		inZP:     q.inZP,
		outScale: q.outScale,
		fwd:      tensor.NewArena(),
	}
}

// Infer implements Inferencer.
func (q *QuantConv2D) Infer(x *tensor.Tensor, a *tensor.Arena) *tensor.Tensor {
	return q.inferFused(x, a, false)
}

// inferFused is the int8 conv forward. The parallel decomposition is the
// same as the fp32 fast path — whole samples across the pool for batches,
// weight panels for batch 1 — with quantize+im2col fused into each
// sample's task so the int8 cols are consumed cache-hot.
func (q *QuantConv2D) inferFused(x *tensor.Tensor, a *tensor.Arena, relu bool) *tensor.Tensor {
	c := q.base
	checkRank(x, 4, "QuantConv2D.Infer")
	n, ch, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	if ch != c.InC {
		panic(fmt.Sprintf("nn: QuantConv2D expects %d input channels, got %d", c.InC, ch))
	}
	if err := c.Geom.Validate(h, w); err != nil {
		panic(err)
	}
	oh, ow := c.Geom.OutSize(h, w)
	out := a.Get(n, c.OutC, oh, ow)
	kdim := c.InC * c.Geom.KH * c.Geom.KW
	ohw := oh * ow

	if n > 1 {
		qx := a.Int8(n * ch * h * w)
		cols := a.Int8(n * kdim * ohw)
		acc := a.Int64(n * 2 * ohw)
		t := &q.colsTask
		t.qx, t.cols, t.acc = qx, cols, acc
		t.x, t.out = x.Data(), out.Data()
		t.sampleStride, t.colStride, t.outStride = ch*h*w, kdim*ohw, c.OutC*ohw
		t.c, t.h, t.w, t.geom = ch, h, w, c.Geom
		t.packed, t.ohw = q.packed, ohw
		t.inInv, t.zp = q.inInv, q.inZP
		t.outScale, t.bias, t.relu = q.outScale, c.Bias.Value.Data(), relu
		tensor.ParallelRange(n, 1, t)
		return out
	}

	// Batch 1: quantize and lower once, spread the gemm over weight
	// panels. Each pool chunk reuses one 2×ohw packed accumulator region,
	// indexed by its first panel so concurrent chunks stay disjoint.
	qx := a.Int8(ch * h * w)
	tensor.QuantizeSlice(qx, x.Data(), q.inInv, q.inZP)
	cols := a.Int8(kdim * ohw)
	tensor.Im2ColSliceInt8(cols, qx, ch, h, w, c.Geom, int8(q.inZP))
	panels := q.packed.Panels()
	acc := a.Int64(panels * 2 * ohw)
	gt := &q.gemmTask
	gt.packed = q.packed
	gt.out, gt.cols, gt.acc = out.Data(), cols, acc
	gt.ohw = ohw
	gt.zp = q.inZP
	gt.outScale, gt.bias, gt.relu = q.outScale, c.Bias.Value.Data(), relu
	tensor.ParallelRange(panels, 1, gt)
	return out
}

// qconvColsTask processes whole samples [lo,hi): quantize the sample's
// input, lower it with the int8 im2col, and multiply through the packed
// int8 kernel while the cols region is cache-hot. Like convColsTask it
// reuses the scratch slots of sample lo for every sample of its range.
type qconvColsTask struct {
	qx, cols                           []int8
	acc                                []int64
	x, out                             []float32
	sampleStride, colStride, outStride int
	c, h, w                            int
	geom                               tensor.ConvGeom
	packed                             *tensor.PackedInt8
	ohw                                int
	inInv                              float32
	zp                                 int32
	outScale, bias                     []float32
	relu                               bool
}

func (t *qconvColsTask) RunRange(lo, hi int) {
	qx := t.qx[lo*t.sampleStride : (lo+1)*t.sampleStride]
	cols := t.cols[lo*t.colStride : (lo+1)*t.colStride]
	acc := t.acc[lo*2*t.ohw : (lo+1)*2*t.ohw]
	for i := lo; i < hi; i++ {
		tensor.QuantizeSlice(qx, t.x[i*t.sampleStride:(i+1)*t.sampleStride], t.inInv, t.zp)
		tensor.Im2ColSliceInt8(cols, qx, t.c, t.h, t.w, t.geom, int8(t.zp))
		t.packed.MulPanelsInto(t.out[i*t.outStride:(i+1)*t.outStride],
			cols, t.ohw, acc, t.zp, t.outScale, t.bias, t.relu, 0, t.packed.Panels())
	}
}

// qconvPanelTask runs the int8 micro-kernel over weight panels (batch 1).
type qconvPanelTask struct {
	packed         *tensor.PackedInt8
	out            []float32
	cols           []int8
	acc            []int64
	ohw            int
	zp             int32
	outScale, bias []float32
	relu           bool
}

func (t *qconvPanelTask) RunRange(lo, hi int) {
	t.packed.MulPanelsInto(t.out, t.cols, t.ohw,
		t.acc[lo*2*t.ohw:(lo+1)*2*t.ohw],
		t.zp, t.outScale, t.bias, t.relu, lo, hi)
}

// QuantLinear runs a Linear through the int8 pipeline: the batch input is
// quantized once, then per-(sample, panel) dot products accumulate in
// int32 registers and dequantize through the fused epilogue.
type QuantLinear struct {
	base     *Linear
	packed   *tensor.PackedInt8
	inInv    float32
	inZP     int32
	outScale []float32

	task qlinearTask
	fwd  *tensor.Arena
}

func newQuantLinear(l *Linear, obs *MinMaxObserver) (*QuantLinear, bool) {
	if obs == nil {
		return nil, false
	}
	scale, zp, ok := obs.QParams()
	if !ok {
		return nil, false
	}
	wq, ws := tensor.QuantizeSymmetricPerRow(l.Weight.Value)
	live := false
	outScale := make([]float32, l.Out)
	for r, s := range ws {
		outScale[r] = s * scale
		if s != 0 {
			live = true
		}
	}
	if !live {
		return nil, false
	}
	return &QuantLinear{
		base:     l,
		packed:   tensor.PackInt8(wq, l.Out, l.In),
		inInv:    1 / scale,
		inZP:     zp,
		outScale: outScale,
		fwd:      tensor.NewArena(),
	}, true
}

// Underlying implements the unwrap protocol.
func (q *QuantLinear) Underlying() Module { return q.base }

// Params implements Module.
func (q *QuantLinear) Params() []*Param { return q.base.Params() }

// OutShape implements Module.
func (q *QuantLinear) OutShape(in []int) []int { return q.base.OutShape(in) }

// Forward implements Module via the int8 kernels (see QuantConv2D.Forward).
func (q *QuantLinear) Forward(x *tensor.Tensor) *tensor.Tensor {
	q.fwd.Reset()
	return q.inferFused(x, q.fwd, false)
}

// Backward implements Module. Quantized layers are inference-only.
func (q *QuantLinear) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	panic("nn: QuantLinear is inference-only and does not support Backward")
}

// cloneShared implements sharedCloner.
func (q *QuantLinear) cloneShared() Module {
	return &QuantLinear{
		base:     q.base,
		packed:   q.packed,
		inInv:    q.inInv,
		inZP:     q.inZP,
		outScale: q.outScale,
		fwd:      tensor.NewArena(),
	}
}

// Infer implements Inferencer.
func (q *QuantLinear) Infer(x *tensor.Tensor, a *tensor.Arena) *tensor.Tensor {
	return q.inferFused(x, a, false)
}

func (q *QuantLinear) inferFused(x *tensor.Tensor, a *tensor.Arena, relu bool) *tensor.Tensor {
	l := q.base
	checkRank(x, 2, "QuantLinear.Infer")
	if x.Dim(1) != l.In {
		panic(fmt.Sprintf("nn: QuantLinear expects %d features, got %d", l.In, x.Dim(1)))
	}
	n := x.Dim(0)
	out := a.Get(n, l.Out)
	qx := a.Int8(n * l.In)
	tensor.QuantizeSlice(qx, x.Data(), q.inInv, q.inZP)
	t := &q.task
	t.packed = q.packed
	t.out, t.qx = out.Data(), qx
	t.outW, t.inW, t.panels = l.Out, l.In, q.packed.Panels()
	t.zp = q.inZP
	t.outScale, t.bias, t.relu = q.outScale, l.Bias.Value.Data(), relu
	tensor.ParallelRange(n*t.panels, 1, t)
	return out
}

// qlinearTask spreads per-sample int8 dot-product panels across the pool.
type qlinearTask struct {
	packed            *tensor.PackedInt8
	out               []float32
	qx                []int8
	outW, inW, panels int
	zp                int32
	outScale, bias    []float32
	relu              bool
}

func (t *qlinearTask) RunRange(lo, hi int) {
	for idx := lo; idx < hi; idx++ {
		i := idx / t.panels
		p := idx % t.panels
		t.packed.DotPanelInto(t.out[i*t.outW:(i+1)*t.outW], t.qx[i*t.inW:(i+1)*t.inW],
			p, t.zp, t.outScale, t.bias, t.relu)
	}
}
