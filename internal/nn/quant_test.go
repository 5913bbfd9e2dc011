package nn

import (
	"math"
	"math/rand"
	"testing"

	"drainnet/internal/tensor"
)

// buildSPPNet constructs a small conv→pool→conv→SPP→FC network with
// the branched SPP pyramid of the detector.
func buildSPPNet(rng *rand.Rand) *Sequential {
	const (
		inC, c1, c2 = 3, 6, 10
		fcw, head   = 24, 5
	)
	net := NewSequential()
	net.Add(NewConv2D(rng, inC, c1, 3, 1))
	net.Add(NewReLU())
	net.Add(NewMaxPool2D(2, 2))
	net.Add(NewConv2D(rng, c1, c2, 3, 1))
	net.Add(NewReLU())
	spp := NewSPP(3, 2, 1)
	net.Add(spp)
	net.Add(NewLinear(rng, spp.OutFeatures(c2), fcw))
	net.Add(NewReLU())
	net.Add(NewLinear(rng, fcw, head))
	return net
}

// assertBitwiseEqual fails unless got and want agree on shape and on
// every element's exact bit pattern.
func assertBitwiseEqual(t *testing.T, label string, got, want *tensor.Tensor) {
	t.Helper()
	gd, wd := got.Data(), want.Data()
	if len(gd) != len(wd) {
		t.Fatalf("%s: size %d != %d", label, len(gd), len(wd))
	}
	for i := range gd {
		if math.Float32bits(gd[i]) != math.Float32bits(wd[i]) {
			t.Fatalf("%s: element %d differs: %g (%#x) != %g (%#x)",
				label, i, gd[i], math.Float32bits(gd[i]), wd[i], math.Float32bits(wd[i]))
		}
	}
}

func calibBatches(rng *rand.Rand, n int, shape ...int) []*tensor.Tensor {
	var out []*tensor.Tensor
	for b := 0; b < n; b++ {
		out = append(out, randInput(rng, shape...))
	}
	return out
}

func TestMinMaxObserverQParams(t *testing.T) {
	var o MinMaxObserver
	if _, _, ok := o.QParams(); ok {
		t.Fatal("unseen observer produced qparams")
	}
	o.Observe([]float32{-1, 3})
	scale, zp, ok := o.QParams()
	if !ok {
		t.Fatal("observer with a real range rejected")
	}
	if want := float32(4.0 / 255); scale != want {
		t.Fatalf("scale = %v, want %v", scale, want)
	}
	// Real 0.0 must map exactly onto the zero point, and the range ends
	// must land inside [-128, 127].
	q := make([]int8, 3)
	tensor.QuantizeSlice(q, []float32{0, -1, 3}, 1/scale, zp)
	if int32(q[0]) != zp {
		t.Fatalf("0.0 quantized to %d, zero point is %d", q[0], zp)
	}
	if q[1] != -128 {
		t.Fatalf("range min quantized to %d, want -128", q[1])
	}
	if q[2] != 127 {
		t.Fatalf("range max quantized to %d, want 127", q[2])
	}

	// A positive-only range must still include 0.
	var p MinMaxObserver
	p.Observe([]float32{2, 6})
	_, zp2, ok := p.QParams()
	if !ok || zp2 != -128 {
		t.Fatalf("positive-only range zp = %d ok=%t, want -128 true", zp2, ok)
	}

	// Degenerate ranges are hostile.
	var d MinMaxObserver
	d.Observe([]float32{0, 0})
	if _, _, ok := d.QParams(); ok {
		t.Fatal("all-zero range produced qparams")
	}
}

// quantizedPair builds the SPP test network, calibrates it on random
// batches and returns (fp32 net, quantized net).
func quantizedPair(t *testing.T, rng *rand.Rand) (*Sequential, *Sequential) {
	t.Helper()
	net := buildSPPNet(rng)
	cal := Calibrate(net, calibBatches(rng, 4, 8, 3, 21, 21))
	qnet, rep, err := QuantizeForInference(net, cal)
	if err != nil {
		t.Fatalf("QuantizeForInference: %v", err)
	}
	if rep.Quantized != 4 || rep.Fallback != 0 {
		t.Fatalf("report = %+v, want 4 quantized / 0 fallback", rep)
	}
	return net, qnet
}

func TestQuantizeForInferenceAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	net, qnet := quantizedPair(t, rng)
	for _, batch := range []int{1, 16} {
		x := randInput(rng, batch, 3, 21, 21)
		want := net.Infer(x, tensor.NewArena())
		got := qnet.Infer(x, tensor.NewArena())
		var maxDiff, rng float32
		for i, w := range want.Data() {
			if d := got.Data()[i] - w; d > maxDiff {
				maxDiff = d
			} else if -d > maxDiff {
				maxDiff = -d
			}
			if w > rng {
				rng = w
			} else if -w > rng {
				rng = -w
			}
		}
		if maxDiff > 0.05*rng {
			t.Fatalf("batch %d: quantized output off by %v (fp32 range %v)", batch, maxDiff, rng)
		}
	}
}

func TestQuantizedUnwrapAndParams(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	net, qnet := quantizedPair(t, rng)
	for i, m := range qnet.Modules() {
		orig := net.Modules()[i]
		switch m.(type) {
		case *QuantConv2D, *QuantLinear:
			if Unwrap(m) != orig {
				t.Fatalf("module %d: Unwrap does not return the original layer", i)
			}
			if m.(Module).Params()[0] != orig.Params()[0] {
				t.Fatalf("module %d: quantized layer does not expose original params", i)
			}
		default:
			if Unwrap(m) != m {
				t.Fatalf("module %d: Unwrap changed a plain module", i)
			}
		}
	}
}

func TestQuantInferDeterministicAndForwardParity(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	_, qnet := quantizedPair(t, rng)
	for _, batch := range []int{1, 16} {
		x := randInput(rng, batch, 3, 21, 21)
		a := tensor.NewArena()
		first := qnet.Infer(x, a).Clone()
		// Run-to-run bit-exactness on the same replica and on a shared
		// clone (replicas share packed codes and scales).
		a.Reset()
		assertBitwiseEqual(t, "rerun", qnet.Infer(x, a), first)
		clone, err := CloneShared(qnet)
		if err != nil {
			t.Fatalf("CloneShared: %v", err)
		}
		assertBitwiseEqual(t, "clone", clone.(*Sequential).Infer(x, tensor.NewArena()), first)
		// The Forward walk (tracing path) must see the same quantized
		// numbers as the fused Infer path.
		assertBitwiseEqual(t, "forward", qnet.Forward(x), first)
	}
}

func TestQuantizeFallbackHostileLayers(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	net := buildSPPNet(rng)
	// Direct-algorithm convs are not quantizable.
	net.Modules()[0].(*Conv2D).Algo = ConvDirect
	cal := Calibrate(net, calibBatches(rng, 2, 4, 3, 21, 21))
	_, rep, err := QuantizeForInference(net, cal)
	if err != nil {
		t.Fatalf("QuantizeForInference: %v", err)
	}
	if rep.Quantized != 3 || rep.Fallback != 1 {
		t.Fatalf("direct conv: report = %+v, want 3/1", rep)
	}
	// An empty calibration leaves every layer fp32.
	qnet, rep, err := QuantizeForInference(net, &Calibration{})
	if err != nil {
		t.Fatalf("QuantizeForInference(empty cal): %v", err)
	}
	if rep.Quantized != 0 || rep.Fallback != 4 {
		t.Fatalf("empty calibration: report = %+v, want 0/4", rep)
	}
	// The all-fallback net still runs and matches the fp32 fast path.
	x := randInput(rng, 2, 3, 21, 21)
	assertBitwiseEqual(t, "fallback net",
		qnet.Infer(x, tensor.NewArena()), net.Infer(x, tensor.NewArena()))
}
