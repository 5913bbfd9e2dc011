package nn

import (
	"fmt"
	"strings"
	"time"

	"drainnet/internal/tensor"
)

// Inferencer is the inference-mode counterpart of Module.Forward. Infer
// computes the same values as Forward-in-eval-mode but skips every piece
// of backward bookkeeping (gradient caches, argmax maps, input
// retention) and draws all temporaries from the caller's arena, so a
// steady-state Infer pass performs no heap allocation. The returned
// tensor is arena-owned and only valid until the arena's next Reset.
//
// Infer on a layer whose math is shared with Forward (conv, linear,
// activations, pools) is bit-for-bit identical to the eval-mode Forward
// result: the kernels accumulate in the same order.
type Inferencer interface {
	Infer(x *tensor.Tensor, a *tensor.Arena) *tensor.Tensor
}

// fusedInferencer is implemented by layers whose epilogue can absorb a
// following ReLU (conv and linear), letting Sequential.Infer skip the
// separate activation pass over the output tensor.
type fusedInferencer interface {
	inferFused(x *tensor.Tensor, a *tensor.Arena, relu bool) *tensor.Tensor
}

// preparer is implemented by layers that pre-pack static state (packed
// weight panels) once before serving.
type preparer interface {
	prepareInference()
}

// sharedCloner produces an inference replica of a layer that shares all
// immutable state (weights, packed panels, running statistics) with the
// receiver but owns its forward caches, so replicas can run concurrently.
type sharedCloner interface {
	cloneShared() Module
}

// Infer runs the chain in inference mode, fusing each Conv2D/Linear with
// an immediately following ReLU (and a conv block's max-pool, see
// InferRange) into the producing layer's epilogue. Modules that do not
// implement Inferencer fall back to Forward.
func (s *Sequential) Infer(x *tensor.Tensor, a *tensor.Arena) *tensor.Tensor {
	return s.InferRange(x, a, 0, len(s.mods))
}

// InferRange runs modules [lo, hi) of the chain in inference mode with
// the same fusion rules as Infer: a Conv2D/Linear takes a following ReLU
// into its epilogue, and a Conv2D on its flat route (the default kernel
// at stride 1) takes the 2×2/2 max-pool after that too, so the
// full-resolution activation of a conv block is never materialised.
// Fusion lookahead never crosses hi, so a prefix run leaves a trailing
// activation or pool for the tail run, and every fused form computes
// the bits of the unfused chain: splitting Infer into InferRange(0, k)
// followed by InferRange(k, len) at any module boundary produces the
// same values as one full Infer. This is the seam the dynamic inference
// path uses: the conv stack runs as a prefix, the early-exit probe reads
// its output, and only surviving samples pay for the SPP+FC tail.
//
// With a stage hook bound (SetStageHook), every block InferRange runs —
// a fused conv→ReLU→pool, a Linear→ReLU, a lone SPP — is reported as a
// stage whose index is the block's first module.
func (s *Sequential) InferRange(x *tensor.Tensor, a *tensor.Arena, lo, hi int) *tensor.Tensor {
	for i := lo; i < hi; i++ {
		if s.hook == nil {
			x, i = s.runBlock(x, a, i, hi)
			continue
		}
		start, first, bucket := time.Now(), i, min(x.Dim(0), 2)-1
		x, i = s.runBlock(x, a, i, hi)
		s.hook(first, s.labels[first][bucket][i-first], start, time.Since(start))
	}
	return x
}

// runBlock runs the block of modules starting at i under InferRange's
// fusion rules and returns its output and the index of its last module.
func (s *Sequential) runBlock(x *tensor.Tensor, a *tensor.Arena, i, hi int) (*tensor.Tensor, int) {
	m := s.mods[i]
	if f, ok := m.(fusedInferencer); ok {
		relu := false
		if i+1 < hi {
			_, relu = s.mods[i+1].(*ReLU)
		}
		if relu {
			i++
		}
		if c, ok := m.(*Conv2D); ok && i+1 < hi && c.flatRoute(x.Dim(0)) {
			if p, ok := s.mods[i+1].(*MaxPool2D); ok && p.Geom == pool2x2 {
				return c.inferBlock(x, a, relu, p), i + 1
			}
		}
		return f.inferFused(x, a, relu), i
	}
	if inf, ok := m.(Inferencer); ok {
		return inf.Infer(x, a), i
	}
	return m.Forward(x), i
}

// StageHook observes one executed stage of an inference pass: the
// stage index, its label (module names joined with "→") and its
// wall-clock window. Sequential chains report each fused block
// (Sequential.SetStageHook), the dynamic executor its exit probe too;
// stages run one after another on the caller's goroutine.
type StageHook func(stage int, label string, start time.Time, dur time.Duration)

// blockLabels names the blocks InferRange can run from one module,
// indexed [batch bucket (1, >1)][modules in the block - 1].
type blockLabels [2][3]string

// SetStageHook binds hook to the chain's inference passes: from now on
// InferRange reports every block it runs (nil unbinds). Block labels
// join the module names with "→" and tag each conv whose kernel for the
// batch bucket is not the default im2col with it, e.g.
// "Conv2D[masked]→ReLU"; they are fixed when the hook is bound, so bind
// after the kernels are chosen. Clones never inherit the hook.
func (s *Sequential) SetStageHook(hook StageHook) {
	s.hook, s.labels = hook, nil
	if hook == nil {
		return
	}
	s.labels = make([]blockLabels, len(s.mods))
	for i := range s.mods {
		for b, n := range [2]int{1, 2} {
			label := ""
			for k := 0; k < 3 && i+k < len(s.mods); k++ {
				if k > 0 {
					label += "→"
				}
				label += opName(s.mods[i+k], n)
				s.labels[i][b][k] = label
			}
		}
	}
}

// opName names one module as it runs on a batch of n samples.
func opName(m Module, n int) string {
	name := ModuleName(m)
	if c, ok := m.(*Conv2D); ok {
		if k := c.kernelFor(n); k != KernelIm2Col {
			name += "[" + k.String() + "]"
		}
	}
	return name
}

// ModuleName names a module for telemetry: its concrete type without the
// package qualifier (Conv2D, MaxPool2D, SPP, QuantConv2D, ...).
func ModuleName(m Module) string {
	return strings.TrimPrefix(fmt.Sprintf("%T", m), "*nn.")
}

// PrepareInference packs every packable layer's static weights for the
// fast path. Call once after the weights reach their serving values;
// Infer also packs lazily on first use, so PrepareInference is an
// optimization that moves the one-time cost to load time.
func PrepareInference(m Module) {
	if p, ok := m.(preparer); ok {
		p.prepareInference()
	}
	if s, ok := m.(*Sequential); ok {
		for _, child := range s.mods {
			PrepareInference(child)
		}
	}
}

// PrepareInferenceParallel is PrepareInference with the per-layer
// packing work (panel packing, Winograd transform, NCHWc blocking)
// spread across the worker pool. Layers pack independent state, so the
// only coordination is the pool itself; a nested ParallelRange inside a
// layer's packing degrades inline. Use at load time where cold-start
// latency matters (cluster respawn); the result is identical to
// PrepareInference.
func PrepareInferenceParallel(m Module) {
	var ps []preparer
	collectPreparers(m, &ps)
	tensor.ParallelFor(len(ps), func(i int) { ps[i].prepareInference() })
}

func collectPreparers(m Module, ps *[]preparer) {
	if p, ok := m.(preparer); ok {
		*ps = append(*ps, p)
	}
	if s, ok := m.(*Sequential); ok {
		for _, child := range s.mods {
			collectPreparers(child, ps)
		}
	}
}

// CloneShared builds an inference replica of a module tree: immutable
// state (weight tensors, packed panels, batch-norm running statistics)
// is shared with the original, while per-call caches are fresh, so the
// clone can run Infer concurrently with the original and with other
// clones. Memory cost per replica is scratch-only, not a full copy of
// the weights. Returns an error if the tree contains a module type that
// does not support shared cloning.
func CloneShared(m Module) (Module, error) {
	if s, ok := m.(*Sequential); ok {
		out := &Sequential{mods: make([]Module, len(s.mods))}
		for i, child := range s.mods {
			c, err := CloneShared(child)
			if err != nil {
				return nil, err
			}
			out.mods[i] = c
		}
		return out, nil
	}
	if sc, ok := m.(sharedCloner); ok {
		return sc.cloneShared(), nil
	}
	return nil, fmt.Errorf("nn: %T does not support shared cloning", m)
}
