package nn

import (
	"math"
	"math/rand"
	"testing"

	"drainnet/internal/tensor"
)

func maskTestConv(t *testing.T, k, stride int) *Conv2D {
	t.Helper()
	rng := rand.New(rand.NewSource(21))
	c := NewConv2D(rng, 3, 10, k, stride)
	for i := range c.Bias.Value.Data() {
		c.Bias.Value.Data()[i] = float32(i%5)*0.1 - 0.2
	}
	return c
}

// With a threshold below any real activation energy every band stays
// active, and the masked kernel must be bit-identical to the im2col
// reference — the masked GEMM computes the same columns in the same
// accumulation order.
func TestMaskedConvAllActiveBitwise(t *testing.T) {
	for _, relu := range []bool{false, true} {
		for _, n := range []int{1, 4} {
			c := maskTestConv(t, 3, 1)
			ref := c.cloneShared().(*Conv2D)
			c.SetMask(ConvMask{BandRows: 3, Threshold: 1e-20})
			c.SetKernels(KernelMasked, KernelMasked)

			rng := rand.New(rand.NewSource(31))
			x := tensor.New(n, 3, 17, 13)
			for i := range x.Data() {
				x.Data()[i] = float32(rng.NormFloat64())
			}
			a1, a2 := tensor.NewArena(), tensor.NewArena()
			got := c.inferFused(x, a1, relu)
			want := ref.inferFused(x, a2, relu)
			for i := range want.Data() {
				if got.Data()[i] != want.Data()[i] {
					t.Fatalf("relu=%v n=%d: masked all-active differs at %d: %v vs %v",
						relu, n, i, got.Data()[i], want.Data()[i])
				}
			}
		}
	}
}

// A spatially constant input has zero deviation energy: every interior
// band masks, and the flat-response fill matches the exact conv output
// to float tolerance (same math, different accumulation order).
func TestMaskedConvFlatInputMasksAndApproximates(t *testing.T) {
	for _, n := range []int{1, 5} {
		c := maskTestConv(t, 3, 1)
		ref := c.cloneShared().(*Conv2D)
		stats := &MaskStats{}
		c.SetMask(ConvMask{BandRows: 4, Stats: stats})
		c.SetKernels(KernelMasked, KernelMasked)

		x := tensor.New(n, 3, 20, 15)
		for i := range x.Data() {
			ch := (i / (20 * 15)) % 3
			x.Data()[i] = 0.2 + 0.3*float32(ch)
		}
		a1, a2 := tensor.NewArena(), tensor.NewArena()
		got := c.inferFused(x, a1, true)
		want := ref.inferFused(x, a2, true)
		var maxErr float64
		for i := range want.Data() {
			d := math.Abs(float64(got.Data()[i] - want.Data()[i]))
			if d > maxErr {
				maxErr = d
			}
		}
		if maxErr > 1e-4 {
			t.Fatalf("n=%d: flat-input masked output off by %v", n, maxErr)
		}
		masked, total := stats.Counts()
		if total == 0 || masked == 0 {
			t.Fatalf("n=%d: expected masked bands on flat input, got %d/%d", n, masked, total)
		}
		// Only the two padding-adjacent bands per sample may stay active.
		if int(total-masked) > 2*n {
			t.Fatalf("n=%d: too few masked bands: %d/%d", n, masked, total)
		}
	}
}

// cloneShared must carry the mask spec and shared stats so batcher
// replicas keep masking and report into one counter.
func TestMaskedCloneSharedKeepsMask(t *testing.T) {
	c := maskTestConv(t, 3, 1)
	stats := &MaskStats{}
	c.SetMask(ConvMask{BandRows: 2, Threshold: 0.5, Stats: stats})
	c.SetKernels(KernelMasked, KernelMasked)
	cl := c.cloneShared().(*Conv2D)
	m := cl.Mask()
	if m.BandRows != 2 || m.Threshold != 0.5 || m.Stats != stats {
		t.Fatalf("cloneShared dropped mask spec: %+v", m)
	}
	if b1, bn := cl.Kernels(); b1 != KernelMasked || bn != KernelMasked {
		t.Fatalf("cloneShared dropped kernels: %s %s", b1, bn)
	}
	if !cl.KernelEligible(KernelMasked) {
		t.Fatal("clone not eligible for masked kernel")
	}
}

// InferRange split at any non-fused boundary must equal one full Infer.
func TestInferRangeSplitMatchesInfer(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	net := NewSequential(
		NewConv2D(rng, 2, 6, 3, 1),
		NewReLU(),
		NewMaxPool2D(2, 2),
		NewConv2D(rng, 6, 8, 3, 1),
		NewReLU(),
		NewMaxPool2D(2, 2),
		NewSPP(2, 1),
		NewLinear(rng, 8*5, 7),
		NewReLU(),
		NewLinear(rng, 7, 5),
	)
	PrepareInference(net)
	x := tensor.New(3, 2, 16, 16)
	for i := range x.Data() {
		x.Data()[i] = float32(rng.NormFloat64())
	}
	aRef := tensor.NewArena()
	want := net.Infer(x, aRef)
	// Split at the SPP boundary (the dynamic path's seam) and at the
	// first pool: both are non-fused boundaries.
	for _, cut := range []int{3, 6} {
		a := tensor.NewArena()
		mid := net.InferRange(x, a, 0, cut)
		got := net.InferRange(mid, a, cut, len(net.Modules()))
		if got.Len() != want.Len() {
			t.Fatalf("cut %d: length %d vs %d", cut, got.Len(), want.Len())
		}
		for i := range want.Data() {
			if got.Data()[i] != want.Data()[i] {
				t.Fatalf("cut %d: differs at %d", cut, i)
			}
		}
	}
}

// halfFlatBatch fills n samples whose top half is spatially constant per
// channel and whose bottom half is noise, so a threshold between the two
// energies masks some bands of every sample and leaves others.
func halfFlatBatch(rng *rand.Rand, n, c, h, w int) *tensor.Tensor {
	x := tensor.New(n, c, h, w)
	d := x.Data()
	for s := 0; s < n; s++ {
		for ch := 0; ch < c; ch++ {
			base := float32(rng.NormFloat64())
			plane := d[(s*c+ch)*h*w : (s*c+ch+1)*h*w]
			for i := range plane {
				plane[i] = base
				if i/w >= h/2 {
					plane[i] += float32(rng.NormFloat64())
				}
			}
		}
	}
	return x
}

// A batch runs the batch-1 route sample by sample, so each sample of a
// batch-N masked forward must carry the bits it gets alone — at every
// band height, with thresholds that mask none, some (a band short enough
// to fit in the flat half) and all of the bands, with and without the
// ReLU — and the skip counters must add up the same.
func TestMaskedBatchMatchesBatch1(t *testing.T) {
	const n, ch, h, w = 5, 3, 17, 13
	rng := rand.New(rand.NewSource(51))
	x := halfFlatBatch(rng, n, ch, h, w)
	for _, thr := range []struct {
		name string
		v    float32
	}{{"none", 1e-20}, {"some", 0.3}, {"all", 1e30}} {
		for band := 1; band <= h; band++ {
			for _, relu := range []bool{false, true} {
				c := maskTestConv(t, 3, 1)
				stats := &MaskStats{}
				c.SetMask(ConvMask{BandRows: band, Threshold: thr.v, Stats: stats})
				c.SetKernels(KernelMasked, KernelMasked)
				got := c.inferFused(x, tensor.NewArena(), relu)
				batchMasked, batchTotal := stats.Counts()
				stats.Reset()
				per := got.Len() / n
				for s := 0; s < n; s++ {
					xs := tensor.FromSlice(x.Data()[s*ch*h*w:(s+1)*ch*h*w], 1, ch, h, w)
					want := c.inferFused(xs, tensor.NewArena(), relu)
					for i, v := range want.Data() {
						if g := got.Data()[s*per+i]; math.Float32bits(g) != math.Float32bits(v) {
							t.Fatalf("threshold %s band %d relu=%v: sample %d element %d = %v in the batch, %v alone",
								thr.name, band, relu, s, i, g, v)
						}
					}
				}
				masked, total := stats.Counts()
				if masked != batchMasked || total != batchTotal {
					t.Fatalf("threshold %s band %d: batch counted %d/%d masked bands, batch-1 runs %d/%d",
						thr.name, band, batchMasked, batchTotal, masked, total)
				}
				switch {
				case thr.name == "none" && masked != 0,
					thr.name == "some" && band <= h/4 && (masked == 0 || masked == total),
					thr.name == "all" && masked != total:
					t.Fatalf("threshold %s band %d masked %d of %d bands", thr.name, band, masked, total)
				}
			}
		}
	}
}

// The masked route keeps one sample's scratch at any batch size: a warm
// batch-16 forward's arena holds what a batch-1 forward's does plus the
// fifteen more output samples, and not sixteen lowerings.
func TestMaskedBatchScratchIsOneSample(t *testing.T) {
	const ch, h, w = 3, 17, 13
	c := maskTestConv(t, 3, 1)
	c.SetMask(ConvMask{BandRows: 4, Threshold: 0.3})
	c.SetKernels(KernelMasked, KernelMasked)
	rng := rand.New(rand.NewSource(52))
	floats := func(n int) int {
		x := halfFlatBatch(rng, n, ch, h, w)
		a := tensor.NewArena()
		for i := 0; i < 2; i++ {
			a.Reset()
			c.inferFused(x, a, true)
		}
		return a.Floats()
	}
	one, sixteen := floats(1), floats(16)
	if grown, out := sixteen-one, 15*c.OutC*h*w; grown != out {
		t.Fatalf("batch-16 arena holds %d floats, batch-1 %d: %d more, want the %d of fifteen more output samples",
			sixteen, one, grown, out)
	}
}
