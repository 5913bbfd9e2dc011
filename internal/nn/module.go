// Package nn implements the neural-network layers used by drainnet's
// SPP-Net models: convolution, max pooling, adaptive pooling, spatial
// pyramid pooling, fully-connected layers, activations, and the detection
// losses. Every layer implements both a forward and a hand-derived
// backward pass; the backward passes are verified against numerical
// gradients in the test suite.
//
// Layers cache forward activations needed by the next Backward call, so a
// single layer instance must not be used from multiple goroutines
// concurrently. Batched data uses N×C×H×W layout for images and N×F for
// flat features.
package nn

import (
	"fmt"

	"drainnet/internal/tensor"
)

// Param is a trainable parameter: a value tensor and its gradient
// accumulator of identical shape.
type Param struct {
	Name  string
	Value *tensor.Tensor
	Grad  *tensor.Tensor
}

// NewParam allocates a parameter with a zeroed value and gradient.
func NewParam(name string, shape ...int) *Param {
	return &Param{
		Name:  name,
		Value: tensor.New(shape...),
		Grad:  tensor.New(shape...),
	}
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// Module is a differentiable network component.
type Module interface {
	// Forward consumes the input and returns the output, caching whatever
	// intermediate state Backward needs.
	Forward(x *tensor.Tensor) *tensor.Tensor
	// Backward consumes dL/d(output) and returns dL/d(input), accumulating
	// parameter gradients along the way. It must be called after Forward.
	Backward(gradOut *tensor.Tensor) *tensor.Tensor
	// Params returns the module's trainable parameters (possibly empty).
	Params() []*Param
	// OutShape returns the output shape for a given input shape, without
	// running the computation. It is used for graph construction and
	// validation.
	OutShape(in []int) []int
}

// Sequential chains modules, feeding each output to the next input.
type Sequential struct {
	mods []Module
	// hook times inference blocks (SetStageHook); labels are its names.
	hook   StageHook
	labels []blockLabels
}

// NewSequential builds a sequential container over the given modules.
func NewSequential(mods ...Module) *Sequential {
	return &Sequential{mods: mods}
}

// Add appends a module to the chain.
func (s *Sequential) Add(m Module) { s.mods = append(s.mods, m) }

// Modules returns the contained modules in order.
func (s *Sequential) Modules() []Module { return s.mods }

// Forward implements Module.
func (s *Sequential) Forward(x *tensor.Tensor) *tensor.Tensor {
	for _, m := range s.mods {
		x = m.Forward(x)
	}
	return x
}

// Backward implements Module.
func (s *Sequential) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	for i := len(s.mods) - 1; i >= 0; i-- {
		gradOut = s.mods[i].Backward(gradOut)
	}
	return gradOut
}

// Params implements Module.
func (s *Sequential) Params() []*Param {
	var ps []*Param
	for _, m := range s.mods {
		ps = append(ps, m.Params()...)
	}
	return ps
}

// OutShape implements Module.
func (s *Sequential) OutShape(in []int) []int {
	for _, m := range s.mods {
		in = m.OutShape(in)
	}
	return in
}

// ZeroGrad clears every parameter gradient in the container.
func (s *Sequential) ZeroGrad() {
	for _, p := range s.Params() {
		p.ZeroGrad()
	}
}

// ParamCount returns the total number of scalar parameters.
func ParamCount(m Module) int {
	n := 0
	for _, p := range m.Params() {
		n += p.Value.Len()
	}
	return n
}

func checkRank(x *tensor.Tensor, rank int, who string) {
	if x.Rank() != rank {
		panic(fmt.Sprintf("nn: %s expects rank-%d input, got shape %v", who, rank, x.Shape()))
	}
}
