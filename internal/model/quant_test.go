package model

import (
	"math"
	"math/rand"
	"testing"

	"drainnet/internal/metrics"
	"drainnet/internal/nn"
	"drainnet/internal/tensor"
	"drainnet/internal/terrain"
)

// quantCalibData builds a synthetic held-out split: n clips matching
// inferTestNet's 4-band 40px input, half of them positives with boxes
// scattered around the clip.
func quantCalibData(rng *rand.Rand, n int) *terrain.Dataset {
	ds := &terrain.Dataset{ClipSize: 40}
	for i := 0; i < n; i++ {
		img := tensor.New(4, 40, 40)
		img.RandNormal(rng, 0, 1)
		s := terrain.Sample{Image: img}
		if i%2 == 0 {
			s.Target = nn.DetectionTarget{
				HasObject: true,
				CX:        0.2 + 0.6*rng.Float32(),
				CY:        0.2 + 0.6*rng.Float32(),
				W:         0.1 + 0.2*rng.Float32(),
				H:         0.1 + 0.2*rng.Float32(),
			}
		}
		ds.Samples = append(ds.Samples, s)
	}
	return ds
}

func TestParsePrecision(t *testing.T) {
	for _, s := range []string{"fp32", "int8", "auto"} {
		p, err := ParsePrecision(s)
		if err != nil || string(p) != s {
			t.Fatalf("ParsePrecision(%q) = %q, %v", s, p, err)
		}
	}
	if _, err := ParsePrecision("fp16"); err == nil {
		t.Fatal("ParsePrecision(fp16) should fail")
	}
}

// The gate must quantize every conv/linear of the SPP net, report both
// precisions' AP on the split, and enable int8 exactly when the drop
// stays within epsilon.
func TestQuantizeGated(t *testing.T) {
	net := inferTestNet(t)
	ds := quantCalibData(rand.New(rand.NewSource(11)), 32)

	dec, err := QuantizeGated(net, ds, QuantOptions{MaxAPDrop: 1.0})
	if err != nil {
		t.Fatalf("QuantizeGated: %v", err)
	}
	if dec.Report.Quantized == 0 {
		t.Fatalf("no layers quantized: %+v", dec.Report)
	}
	if dec.Report.Fallback != 0 {
		t.Fatalf("unexpected fallback layers: %+v", dec.Report)
	}
	if dec.FP32AP < 0 || dec.FP32AP > 1 || dec.Int8AP < 0 || dec.Int8AP > 1 {
		t.Fatalf("APs out of range: fp32=%v int8=%v", dec.FP32AP, dec.Int8AP)
	}
	if got := dec.FP32AP - dec.Int8AP; math.Abs(got-dec.Drop) > 1e-12 {
		t.Fatalf("Drop = %v, want %v", dec.Drop, got)
	}
	if !dec.Enabled {
		t.Fatalf("gate with epsilon 1.0 must pass (drop %v)", dec.Drop)
	}

	// An impossible epsilon disables int8 even though the quantized net
	// itself is still returned for benchmarking.
	strict, err := QuantizeGated(net, ds, QuantOptions{MaxAPDrop: -2})
	if err != nil {
		t.Fatalf("QuantizeGated(strict): %v", err)
	}
	if strict.Enabled {
		t.Fatalf("gate with epsilon -2 must fail (drop %v)", strict.Drop)
	}
	if strict.Net == nil {
		t.Fatal("failed gate must still return the quantized net")
	}

	if _, err := QuantizeGated(net, &terrain.Dataset{ClipSize: 40}, QuantOptions{}); err == nil {
		t.Fatal("empty calibration dataset must be rejected")
	}
}

// quantTestNet returns the gated int8 copy of inferTestNet plus the
// calibration split used to build it.
func quantTestNet(t testing.TB) (*nn.Sequential, *terrain.Dataset) {
	t.Helper()
	net := inferTestNet(t)
	ds := quantCalibData(rand.New(rand.NewSource(12)), 32)
	dec, err := QuantizeGated(net, ds, QuantOptions{MaxAPDrop: 1.0})
	if err != nil {
		t.Fatalf("QuantizeGated: %v", err)
	}
	return dec.Net, ds
}

// The int8 path must be bit-exactly deterministic: re-running inference
// and re-building the quantized net from the same calibration split must
// reproduce identical detections.
func TestQuantInferDeterministic(t *testing.T) {
	net := inferTestNet(t)
	ds := quantCalibData(rand.New(rand.NewSource(12)), 32)
	dec1, err := QuantizeGated(net, ds, QuantOptions{MaxAPDrop: 1.0})
	if err != nil {
		t.Fatalf("QuantizeGated: %v", err)
	}
	dec2, err := QuantizeGated(net, ds, QuantOptions{MaxAPDrop: 1.0})
	if err != nil {
		t.Fatalf("QuantizeGated rebuild: %v", err)
	}
	if dec1.Int8AP != dec2.Int8AP || dec1.FP32AP != dec2.FP32AP {
		t.Fatalf("gate not deterministic: %+v vs %+v", dec1, dec2)
	}
	rng := rand.New(rand.NewSource(13))
	a := tensor.NewArena()
	for _, batch := range []int{1, 16} {
		x := randClip(rng, batch, 4, 40)
		a.Reset()
		first := append([]metrics.Detection(nil), InferDetect(dec1.Net, x, a, nil)...)
		for run := 0; run < 3; run++ {
			a.Reset()
			got := InferDetect(dec1.Net, x, a, nil)
			for i := range first {
				if got[i] != first[i] {
					t.Fatalf("batch %d run %d: detection %d = %+v, want %+v", batch, run, i, got[i], first[i])
				}
			}
		}
		a.Reset()
		rebuilt := InferDetect(dec2.Net, x, a, nil)
		for i := range first {
			if rebuilt[i] != first[i] {
				t.Fatalf("batch %d: rebuilt net detection %d = %+v, want %+v", batch, i, rebuilt[i], first[i])
			}
		}
	}
}

// Steady-state int8 serving must allocate nothing, exactly like the fp32
// fast path, at the batches a sweep unit and its tail hand a replica.
// Wired into `make check` (check-allocs).
func TestQuantInferSteadyStateZeroAlloc(t *testing.T) {
	qnet, _ := quantTestNet(t)
	rng := rand.New(rand.NewSource(14))
	xs := []*tensor.Tensor{randClip(rng, 4, 4, 40), randClip(rng, 16, 4, 40), randClip(rng, 17, 4, 40)}
	a := tensor.NewArena()
	var dets []metrics.Detection
	run := func() {
		for _, x := range xs {
			a.Reset()
			dets = InferDetect(qnet, x, a, dets)
		}
	}
	run()
	run()
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Fatalf("steady-state int8 InferDetect allocates %v times per run, want 0", allocs)
	}
}
