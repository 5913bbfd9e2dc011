package batcher

import (
	"context"
	"math/rand"
	"testing"

	"drainnet/internal/model"
	"drainnet/internal/nn"
	"drainnet/internal/tensor"
)

// quantTinyNet quantizes the test network with a random calibration set,
// failing the test if any layer falls back.
func quantTinyNet(t testing.TB, cfg model.Config) *nn.Sequential {
	t.Helper()
	net := tinyNet(t, cfg)
	rng := rand.New(rand.NewSource(3))
	var batches []*tensor.Tensor
	for i := 0; i < 4; i++ {
		x := tensor.New(8, cfg.InBands, cfg.InSize, cfg.InSize)
		x.RandNormal(rng, 0, 1)
		batches = append(batches, x)
	}
	qnet, rep, err := nn.QuantizeForInference(net, nn.Calibrate(net, batches))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Fallback != 0 {
		t.Fatalf("quantization fell back on %d layers", rep.Fallback)
	}
	return qnet
}

// A quantized network must pass pool construction (validateConfig sees
// through the int8 wrappers), serve the same detections as the direct
// int8 fast path, and be labeled int8 from its modules alone.
func TestQuantizedPoolServes(t *testing.T) {
	cfg := tinyConfig()
	qnet := quantTinyNet(t, cfg)

	x := clip(9)
	want := model.InferDetect(qnet, x, tensor.NewArena(), nil)[0]

	p, err := New(cfg, qnet, Options{Replicas: 1})
	if err != nil {
		t.Fatalf("New with quantized net: %v", err)
	}
	t.Cleanup(p.Close)
	if p.Options().Plan.Precision != model.PrecisionInt8 {
		t.Fatalf("precision = %q", p.Options().Plan.Precision)
	}

	got, err := p.Submit(context.Background(), x)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("pooled detection %+v, want %+v", got, want)
	}
	if st := p.Stats(); st.Precision != "int8" || st.Served != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// The precision label defaults to fp32 and flows into /v1/stats.
func TestPoolPrecisionDefaultsFP32(t *testing.T) {
	p := newTestPool(t, Options{Replicas: 1})
	if p.Options().Plan.Precision != model.PrecisionFP32 {
		t.Fatalf("precision = %q", p.Options().Plan.Precision)
	}
	if st := p.Stats(); st.Precision != "fp32" {
		t.Fatalf("stats precision = %q", st.Precision)
	}
}
