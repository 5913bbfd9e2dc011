package nn

import (
	"math/rand"
	"sync"
	"testing"

	"drainnet/internal/tensor"
)

// testNet builds a small SPP detection head covering every layer the
// serving fast path dispatches on: conv+ReLU fusion, max-pooling, SPP,
// linear+ReLU fusion, batch-norm running statistics, dropout identity
// and a sigmoid tail. Eval mode throughout so Forward and Infer compute
// the same function.
func testNet(rng *rand.Rand) *Sequential {
	bn := NewBatchNorm2D(6)
	bn.Training = false
	// Push the running stats off their init values so the eval-mode
	// normalization is non-trivial.
	for i := range bn.RunningMean {
		bn.RunningMean[i] = rng.NormFloat64() * 0.1
		bn.RunningVar[i] = 1 + rng.Float64()
	}
	drop := NewDropout(rng, 0.5)
	drop.Training = false
	spp := NewSPP(1, 2)
	return NewSequential(
		NewConv2D(rng, 3, 6, 3, 1),
		bn,
		NewReLU(),
		NewMaxPool2D(2, 2),
		NewConv2D(rng, 6, 8, 3, 2),
		NewReLU(),
		spp,
		NewLinear(rng, spp.OutFeatures(8), 16),
		NewReLU(),
		drop,
		NewLinear(rng, 16, 5),
		NewSigmoid(),
	)
}

func randInput(rng *rand.Rand, shape ...int) *tensor.Tensor {
	x := tensor.New(shape...)
	x.RandNormal(rng, 0, 1)
	return x
}

// The fast path must be bit-for-bit identical to the training-graph
// forward in eval mode: the serving layer's determinism test compares
// detections bitwise across the two paths.
func TestInferMatchesForwardBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	net := testNet(rng)
	PrepareInference(net)
	a := tensor.NewArena()
	for _, n := range []int{1, 3, 16} {
		x := randInput(rng, n, 3, 20, 20)
		want := net.Forward(x)
		a.Reset()
		got := net.Infer(x, a)
		if got.Len() != want.Len() {
			t.Fatalf("n=%d: Infer len %d, Forward len %d", n, got.Len(), want.Len())
		}
		for i := range want.Data() {
			if want.Data()[i] != got.Data()[i] {
				t.Fatalf("n=%d: element %d: Infer %v != Forward %v",
					n, i, got.Data()[i], want.Data()[i])
			}
		}
	}
}

// Infer through a Flatten-based head (no SPP) exercises the arena View
// path.
func TestInferFlattenHeadMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	net := NewSequential(
		NewConv2D(rng, 2, 4, 3, 1),
		NewReLU(),
		NewMaxPool2D(2, 2),
		NewFlatten(),
		NewLinear(rng, 4*5*5, 7),
	)
	PrepareInference(net)
	a := tensor.NewArena()
	x := randInput(rng, 2, 2, 10, 10)
	want := net.Forward(x)
	got := net.Infer(x, a)
	for i := range want.Data() {
		if want.Data()[i] != got.Data()[i] {
			t.Fatalf("element %d: Infer %v != Forward %v", i, got.Data()[i], want.Data()[i])
		}
	}
}

func TestCloneSharedSharesWeightsOwnsCaches(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	net := testNet(rng)
	PrepareInference(net)
	cm, err := CloneShared(net)
	if err != nil {
		t.Fatalf("CloneShared: %v", err)
	}
	clone := cm.(*Sequential)

	// Every parameter tensor must be the same object, not a copy.
	orig, dup := net.Params(), clone.Params()
	if len(orig) != len(dup) {
		t.Fatalf("clone has %d params, original %d", len(dup), len(orig))
	}
	for i := range orig {
		if orig[i].Value != dup[i].Value {
			t.Fatalf("param %q value tensor was copied, not shared", orig[i].Name)
		}
	}
	// So must every packed weight layout: a per-replica repack changes no
	// answer, only each replica's RSS (fc0's pack is 0.49 MB).
	packs := 0
	for i, m := range clone.Modules() {
		switch c := m.(type) {
		case *Conv2D:
			if o := net.Modules()[i].(*Conv2D).packed; o == nil || c.packed != o {
				t.Fatalf("conv at %d: clone's packed panels %p, original's %p", i, c.packed, o)
			}
			packs++
		case *Linear:
			if o := net.Modules()[i].(*Linear).packed; o == nil || c.packed != o {
				t.Fatalf("linear at %d: clone's FC pack %p, original's %p", i, c.packed, o)
			}
			packs++
		}
	}
	if packs < 4 {
		t.Fatalf("checked %d packed layers; the test net has two convs and two linears", packs)
	}
	// Mutable training state must be fresh: a cloned Dropout serves
	// deterministically regardless of the original's mode.
	for i, m := range clone.Modules() {
		if d, ok := m.(*Dropout); ok && d.Training {
			t.Fatalf("cloned Dropout at %d still in training mode", i)
		}
	}

	// Clones and the original must produce identical results, and must be
	// safe to run concurrently — one goroutine per instance, each with its
	// own arena (an instance's per-module scratch is not shareable).
	x := randInput(rng, 4, 3, 20, 20)
	want := net.Forward(x)
	instances := []*Sequential{net, clone}
	for len(instances) < 8 {
		cm, err := CloneShared(net)
		if err != nil {
			t.Fatalf("CloneShared: %v", err)
		}
		instances = append(instances, cm.(*Sequential))
	}
	var wg sync.WaitGroup
	results := make([]*tensor.Tensor, len(instances))
	for g, m := range instances {
		wg.Add(1)
		go func(g int, m *Sequential) {
			defer wg.Done()
			results[g] = m.Infer(x, tensor.NewArena())
		}(g, m)
	}
	wg.Wait()
	for g, r := range results {
		for i := range want.Data() {
			if r.Data()[i] != want.Data()[i] {
				t.Fatalf("goroutine %d: element %d = %v, want %v", g, i, r.Data()[i], want.Data()[i])
			}
		}
	}
}

// The training-path cols cache must track the current batch size instead
// of pinning per-sample buffers for the largest batch ever seen.
func TestConvColsCacheShrinks(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	conv := NewConv2D(rng, 2, 3, 3, 1)
	conv.Forward(randInput(rng, 8, 2, 10, 10))
	if len(conv.cols) != 8 {
		t.Fatalf("cols len = %d after batch 8", len(conv.cols))
	}
	conv.Forward(randInput(rng, 2, 2, 10, 10))
	if len(conv.cols) != 2 {
		t.Fatalf("cols len = %d after batch 2", len(conv.cols))
	}
	full := conv.cols[:cap(conv.cols)]
	for i := 2; i < len(full); i++ {
		if full[i] != nil {
			t.Fatalf("cols[%d] still retained after smaller batch", i)
		}
	}
}

// Inference mode must not touch the training cols cache at all.
func TestInferLeavesColsCacheEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	conv := NewConv2D(rng, 2, 3, 3, 1)
	a := tensor.NewArena()
	conv.Infer(randInput(rng, 4, 2, 10, 10), a)
	if conv.cols != nil {
		t.Fatalf("Infer populated the training cols cache (len %d)", len(conv.cols))
	}
}

// Direct and im2col convolutions must agree at stride > 1 and for even
// kernel sizes, where the output-size and padding arithmetic is easiest
// to get wrong.
func TestConvIm2ColVsDirectStrideAndEvenKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	cases := []struct{ k, stride int }{
		{2, 1}, {2, 2}, {4, 2}, {3, 2}, {3, 3}, {5, 3},
	}
	for _, tc := range cases {
		a := NewConv2D(rng, 3, 4, tc.k, tc.stride)
		b := &Conv2D{InC: 3, OutC: 4, Geom: a.Geom, Algo: ConvDirect,
			Weight: &Param{Name: "w", Value: a.Weight.Value.Clone(), Grad: tensor.New(a.Weight.Value.Shape()...)},
			Bias:   &Param{Name: "b", Value: a.Bias.Value.Clone(), Grad: tensor.New(a.Bias.Value.Shape()...)},
		}
		x := randInput(rng, 2, 3, 13, 13)
		ya := a.Forward(x)
		yb := b.Forward(x)
		if !ya.AllClose(yb, 1e-4, 1e-4) {
			t.Fatalf("k=%d stride=%d: direct and im2col conv disagree", tc.k, tc.stride)
		}
		// The inference fast path must agree with both on the same geometry.
		arena := tensor.NewArena()
		yi := a.Infer(x, arena)
		for i := range ya.Data() {
			if ya.Data()[i] != yi.Data()[i] {
				t.Fatalf("k=%d stride=%d: element %d Infer %v != Forward %v",
					tc.k, tc.stride, i, yi.Data()[i], ya.Data()[i])
			}
		}
	}
}
