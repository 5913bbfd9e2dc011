package nn

import (
	"fmt"
	"math/rand"

	"drainnet/internal/tensor"
)

// Linear is a fully-connected layer: y = x·Wᵀ + b over N×In input.
type Linear struct {
	In, Out int
	Weight  *Param // Out×In
	Bias    *Param // Out

	input *tensor.Tensor

	// inference fast path
	packed *tensor.Packed
	task   linearTask
	gemm   linearGEMMTask
}

// NewLinear creates a fully-connected layer with Xavier initialization.
func NewLinear(rng *rand.Rand, in, out int) *Linear {
	l := &Linear{
		In:     in,
		Out:    out,
		Weight: NewParam(fmt.Sprintf("fc%dx%d_w", out, in), out, in),
		Bias:   NewParam(fmt.Sprintf("fc%dx%d_b", out, in), out),
	}
	l.Weight.Value.XavierInit(rng, in, out)
	return l
}

// Params implements Module.
func (l *Linear) Params() []*Param { return []*Param{l.Weight, l.Bias} }

// OutShape implements Module.
func (l *Linear) OutShape(in []int) []int { return []int{in[0], l.Out} }

// Forward implements Module.
func (l *Linear) Forward(x *tensor.Tensor) *tensor.Tensor {
	checkRank(x, 2, "Linear")
	if x.Dim(1) != l.In {
		panic(fmt.Sprintf("nn: Linear expects %d features, got %d", l.In, x.Dim(1)))
	}
	l.input = x
	out := tensor.MatMulTransB(x, l.Weight.Value) // N×Out
	n := x.Dim(0)
	for i := 0; i < n; i++ {
		row := out.Data()[i*l.Out : (i+1)*l.Out]
		for j := range row {
			row[j] += l.Bias.Value.Data()[j]
		}
	}
	return out
}

// Backward implements Module.
func (l *Linear) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	checkRank(gradOut, 2, "Linear.Backward")
	n := gradOut.Dim(0)
	// dW += dOutᵀ · X
	dw := tensor.MatMulTransA(gradOut, l.input)
	l.Weight.Grad.AddScaled(dw, 1)
	// dB += column sums of dOut
	for i := 0; i < n; i++ {
		row := gradOut.Data()[i*l.Out : (i+1)*l.Out]
		for j, v := range row {
			l.Bias.Grad.Data()[j] += v
		}
	}
	// dX = dOut · W
	return tensor.MatMul(gradOut, l.Weight.Value)
}

// Flatten reshapes N×C×H×W (or any rank ≥ 2) input to N×F.
type Flatten struct {
	inShape []int
}

// NewFlatten creates a flatten layer.
func NewFlatten() *Flatten { return &Flatten{} }

// Params implements Module.
func (f *Flatten) Params() []*Param { return nil }

// OutShape implements Module.
func (f *Flatten) OutShape(in []int) []int {
	return []int{in[0], tensor.Volume(in[1:])}
}

// Forward implements Module.
func (f *Flatten) Forward(x *tensor.Tensor) *tensor.Tensor {
	f.inShape = append([]int(nil), x.Shape()...)
	return x.Reshape(x.Dim(0), -1)
}

// Backward implements Module.
func (f *Flatten) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	return gradOut.Reshape(f.inShape...)
}

// prepareInference packs the weight matrix for the fast-path kernels.
func (l *Linear) prepareInference() {
	if l.packed == nil {
		l.packed = tensor.PackMatrix(l.Weight.Value)
	}
}

// cloneShared implements sharedCloner.
func (l *Linear) cloneShared() Module {
	return &Linear{In: l.In, Out: l.Out, Weight: l.Weight, Bias: l.Bias, packed: l.packed}
}

// Infer implements Inferencer.
func (l *Linear) Infer(x *tensor.Tensor, a *tensor.Arena) *tensor.Tensor {
	return l.inferFused(x, a, false)
}

// inferFused computes y = x·Wᵀ + b with the bias and optional ReLU
// fused. Below tensor.KernelCols samples each output is a dot product of
// one sample against one packed weight row, parallel over (sample,
// weight panel), so the weights stream through the cache once per
// sample. From tensor.KernelCols samples up the batch is one GEMM,
// yᵀ = W·xᵀ: x is transposed into arena scratch, the packed panels run
// MulPanelsInto across the pool with the epilogue fused, and the result
// is transposed back, so each weight panel is read once per batch. Both
// routes compute every output as one chain of rounded multiplies and
// rounded adds over ascending k from zero, then the bias add, then the
// clamp: the same IEEE operations on the same values, so the same bits.
func (l *Linear) inferFused(x *tensor.Tensor, a *tensor.Arena, relu bool) *tensor.Tensor {
	checkRank(x, 2, "Linear.Infer")
	if x.Dim(1) != l.In {
		panic(fmt.Sprintf("nn: Linear expects %d features, got %d", l.In, x.Dim(1)))
	}
	l.prepareInference()
	out := a.Get(x.Dim(0), l.Out)
	l.inferInto(out.Data(), x.Data(), x.Dim(0), a, l.Bias.Value.Data(), relu)
	return out
}

// inferInto is inferFused on raw n×In input and n×Out output slices;
// bias may be nil.
func (l *Linear) inferInto(out, x []float32, n int, a *tensor.Arena, bias []float32, relu bool) {
	if n >= tensor.KernelCols {
		xt, yt := a.Get(l.In, n).Data(), a.Get(l.Out, n).Data()
		transposeInto(xt, x, n, l.In)
		g := &l.gemm
		g.packed, g.yt, g.xt, g.n, g.bias, g.relu = l.packed, yt, xt, n, bias, relu
		tensor.ParallelRange(l.packed.Panels(), 1, g)
		transposeInto(out, yt, l.Out, n)
		return
	}
	t := &l.task
	t.packed, t.out, t.x = l.packed, out, x
	t.outW, t.inW, t.panels = l.Out, l.In, l.packed.Panels()
	t.bias, t.relu = bias, relu
	tensor.ParallelRange(n*t.panels, 1, t)
}

// transposeInto writes the cols×rows transpose of the rows×cols
// row-major src into dst.
func transposeInto(dst, src []float32, rows, cols int) {
	for r := 0; r < rows; r++ {
		for c, v := range src[r*cols : (r+1)*cols] {
			dst[c*rows+r] = v
		}
	}
}

// linearTask spreads per-sample dot-product panels across the pool.
type linearTask struct {
	packed            *tensor.Packed
	out, x            []float32
	outW, inW, panels int
	bias              []float32
	relu              bool
}

func (t *linearTask) RunRange(lo, hi int) {
	for idx := lo; idx < hi; {
		i := idx / t.panels
		p0 := idx % t.panels
		p1 := min(t.panels, p0+hi-idx)
		t.packed.DotPanelsInto(t.out[i*t.outW:(i+1)*t.outW], t.x[i*t.inW:(i+1)*t.inW], p0, p1, t.bias, t.relu)
		idx += p1 - p0
	}
}

// linearGEMMTask spreads the weight panels of a batch GEMM across the
// pool: yt (Out×n) = W·xt (In×n), bias and ReLU fused.
type linearGEMMTask struct {
	packed *tensor.Packed
	yt, xt []float32
	n      int
	bias   []float32
	relu   bool
}

func (t *linearGEMMTask) RunRange(lo, hi int) {
	t.packed.MulPanelsInto(t.yt, t.xt, t.n, t.bias, t.relu, lo, hi)
}

// cloneShared implements sharedCloner.
func (f *Flatten) cloneShared() Module { return NewFlatten() }

// Infer implements Inferencer: a reshaped arena view of the same data.
func (f *Flatten) Infer(x *tensor.Tensor, a *tensor.Arena) *tensor.Tensor {
	return a.View(x, x.Dim(0), -1)
}
