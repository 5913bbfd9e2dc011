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
	packed *tensor.PackedFC
	task   linearTask
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

// prepareInference packs the weight matrix for the FC kernels.
func (l *Linear) prepareInference() {
	if l.packed == nil {
		l.packed = tensor.PackFC(l.Weight.Value)
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
// fused, at every batch size through one entry,
// tensor.PackedFC.MulTransInto: it reads the row-major samples and
// writes the row-major outputs, nothing is transposed, and every
// output is one chain of rounded multiplies and rounded adds over
// ascending k from zero, then the bias add, then the clamp — the
// training forward's operations, so its bits.
func (l *Linear) inferFused(x *tensor.Tensor, a *tensor.Arena, relu bool) *tensor.Tensor {
	checkRank(x, 2, "Linear.Infer")
	if x.Dim(1) != l.In {
		panic(fmt.Sprintf("nn: Linear expects %d features, got %d", l.In, x.Dim(1)))
	}
	l.prepareInference()
	out := a.Get(x.Dim(0), l.Out)
	l.inferInto(out.Data(), x.Data(), x.Dim(0), l.Bias.Value.Data(), relu)
	return out
}

// inferInto is inferFused on raw n×In input and n×Out output slices;
// bias may be nil. The batch runs inline below convSplitMACs
// multiply-adds — the conv block's rule, for the same reason: a region's
// wake-up and hand-back outweigh a few microseconds of kernel — and
// above it the row groups go to the pool, four to a range at least so
// the one-sample kernel keeps its 64-row tile.
func (l *Linear) inferInto(out, x []float32, n int, bias []float32, relu bool) {
	if n*l.In*l.Out < convSplitMACs {
		l.packed.MulTransInto(out, x, n, bias, relu, 0, l.packed.Groups())
		return
	}
	t := &l.task
	t.packed, t.out, t.x, t.n, t.bias, t.relu = l.packed, out, x, n, bias, relu
	tensor.ParallelRange(l.packed.Groups(), 4, t)
}

// linearTask spreads a batch's row groups across the pool.
type linearTask struct {
	packed *tensor.PackedFC
	out, x []float32
	n      int
	bias   []float32
	relu   bool
}

func (t *linearTask) RunRange(lo, hi int) {
	t.packed.MulTransInto(t.out, t.x, t.n, t.bias, t.relu, lo, hi)
}

// cloneShared implements sharedCloner.
func (f *Flatten) cloneShared() Module { return NewFlatten() }

// Infer implements Inferencer: a reshaped arena view of the same data.
func (f *Flatten) Infer(x *tensor.Tensor, a *tensor.Arena) *tensor.Tensor {
	return a.View(x, x.Dim(0), -1)
}
