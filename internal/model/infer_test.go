package model

import (
	"math/rand"
	"testing"

	"drainnet/internal/metrics"
	"drainnet/internal/nn"
	"drainnet/internal/tensor"
)

func inferTestNet(t testing.TB) *nn.Sequential {
	t.Helper()
	cfg := OriginalSPPNet().Scaled(8).WithInput(4, 40)
	net, err := cfg.Build(rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	nn.PrepareInference(net)
	return net
}

func randClip(rng *rand.Rand, n, c, s int) *tensor.Tensor {
	x := tensor.New(n, c, s, s)
	x.RandNormal(rng, 0, 1)
	return x
}

// The zero-alloc fast path must produce bitwise-identical detections to
// the training-graph Detect — it replaces Detect on the serving path.
func TestInferDetectMatchesDetect(t *testing.T) {
	net := inferTestNet(t)
	rng := rand.New(rand.NewSource(6))
	a := tensor.NewArena()
	var dets []metrics.Detection
	for _, n := range []int{1, 4, 16} {
		x := randClip(rng, n, 4, 40)
		want := Detect(net, x)
		a.Reset()
		dets = InferDetect(net, x, a, dets)
		if len(dets) != len(want) {
			t.Fatalf("n=%d: got %d detections, want %d", n, len(dets), len(want))
		}
		for i := range want {
			if dets[i] != want[i] {
				t.Fatalf("n=%d: detection %d = %+v, want %+v", n, i, dets[i], want[i])
			}
		}
	}
}

// The steady-state serving forward must allocate nothing: the arena and
// detection slice are warm after the first pass, and every kernel
// dispatch reuses pooled task descriptors. Clip sizes alternate, as a
// server's requests may: everything a layer sizes by its input — the
// conv blocks' offset tables and scratch, the SPP's bin tables — must
// settle at its larger shape and be rebuilt within that capacity. This
// is the alloc-regression guard wired into `make check` (check-allocs).
// Batches 16 and 17 take the FC layers' GEMM route, the micro-kernel's
// full width and its ragged tail.
func TestInferSteadyStateZeroAlloc(t *testing.T) {
	net := inferTestNet(t)
	rng := rand.New(rand.NewSource(7))
	xs := []*tensor.Tensor{randClip(rng, 4, 4, 40), randClip(rng, 4, 4, 28), randClip(rng, 1, 4, 40), randClip(rng, 1, 4, 28),
		randClip(rng, 16, 4, 40), randClip(rng, 17, 4, 40)}
	a := tensor.NewArena()
	var dets []metrics.Detection
	run := func() {
		for _, x := range xs {
			a.Reset()
			dets = InferDetect(net, x, a, dets)
		}
	}
	run()
	run()
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Fatalf("steady-state InferDetect allocates %v times per run, want 0", allocs)
	}
}

// benchInfer cycles 64 distinct clips: a benchmark that repeats one clip
// makes the data-dependent branches of whatever scalar code is left
// predictable and the whole forward look cheaper than it serves
// (ROADMAP item 5: the scalar max-pool read 8 µs that way and 30 µs on
// distinct clips).
func benchInfer(b *testing.B, batch int) {
	net := inferTestNet(b)
	rng := rand.New(rand.NewSource(8))
	xs := make([]*tensor.Tensor, 64/batch)
	for i := range xs {
		xs[i] = randClip(rng, batch, 4, 40)
	}
	a := tensor.NewArena()
	var dets []metrics.Detection
	dets = InferDetect(net, xs[0], a, dets)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Reset()
		dets = InferDetect(net, xs[i%len(xs)], a, dets)
	}
	_ = dets
}

func benchForward(b *testing.B, batch int) {
	net := inferTestNet(b)
	rng := rand.New(rand.NewSource(8))
	x := randClip(rng, batch, 4, 40)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Detect(net, x)
	}
}

func BenchmarkInferBatch1(b *testing.B)    { benchInfer(b, 1) }
func BenchmarkInferBatch16(b *testing.B)   { benchInfer(b, 16) }
func BenchmarkForwardBatch1(b *testing.B)  { benchForward(b, 1) }
func BenchmarkForwardBatch16(b *testing.B) { benchForward(b, 16) }
