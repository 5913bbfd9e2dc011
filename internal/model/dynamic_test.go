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

// dynCalibData builds a separable synthetic split matching
// inferTestNet's 4-band 40px input: negatives are near-flat background
// (per-channel constant plus faint noise, the empty-tile profile sweep
// traffic is dominated by), positives add a bright structured blob.
func dynCalibData(rng *rand.Rand, n int) *terrain.Dataset {
	ds := &terrain.Dataset{ClipSize: 40}
	for i := 0; i < n; i++ {
		img := tensor.New(4, 40, 40)
		data := img.Data()
		for j := range data {
			ch := j / (40 * 40)
			data[j] = 0.1*float32(ch) + 0.01*float32(rng.NormFloat64())
		}
		s := terrain.Sample{Image: img}
		if i%2 == 0 {
			r0, c0 := 8+rng.Intn(16), 8+rng.Intn(16)
			for ch := 0; ch < 4; ch++ {
				for r := r0; r < r0+8; r++ {
					for c := c0; c < c0+8; c++ {
						data[(ch*40+r)*40+c] += 3 + float32(rng.NormFloat64())
					}
				}
			}
			s.Target = nn.DetectionTarget{
				HasObject: true,
				CX:        (float32(c0) + 4) / 40,
				CY:        (float32(r0) + 4) / 40,
				W:         0.2, H: 0.2,
			}
		}
		ds.Samples = append(ds.Samples, s)
	}
	return ds
}

// With the early exit disabled — or enabled but never firing — the
// dynamic executor must be bit-for-bit identical to the static
// InferDetect across batch sizes, including batch 1.
func TestDynamicOffBitwiseIdentical(t *testing.T) {
	net := inferTestNet(t)
	spp, err := SPPIndex(net)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	for _, n := range []int{1, 4, 16} {
		x := randClip(rng, n, 4, 40)
		a1, a2 := tensor.NewArena(), tensor.NewArena()
		want := InferDetect(net, x, a1, nil)

		for name, plan := range map[string]*DynamicPlan{
			"nil":      nil,
			"disabled": {SPPIndex: spp, ExitStats: &ExitStats{}},
			"never-exits": {
				SPPIndex:    spp,
				ExitEnabled: true,
				Exit: &ExitHead{
					W:         make([]float32, 32),
					Threshold: float32(math.Inf(-1)),
				},
				ExitStats: &ExitStats{},
			},
		} {
			a2.Reset()
			exec := NewDynamicExec(net, plan)
			got := exec.InferDetect(x, a2, nil)
			if len(got) != len(want) {
				t.Fatalf("%s n=%d: %d dets, want %d", name, n, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s n=%d: det %d = %+v, want %+v", name, n, i, got[i], want[i])
				}
			}
		}
	}
}

// PlanDynamic's gate ladder must keep the composed AP drop inside
// epsilon on any data, and on cleanly separable empty-vs-blob traffic
// the early exit must survive the gate and actually fire.
func TestDynamicGatedAPDropWithinEpsilon(t *testing.T) {
	for _, seed := range []int64{3, 7, 13} {
		net := inferTestNet(t)
		ds := dynCalibData(rand.New(rand.NewSource(seed)), 48)
		plan, err := PlanDynamic(net, ds, DynamicOptions{MaxAPDrop: 0.05})
		if err != nil {
			t.Fatalf("seed %d: PlanDynamic: %v", seed, err)
		}
		if plan.Drop > plan.Epsilon+1e-12 {
			t.Fatalf("seed %d: drop %v exceeds epsilon %v (demotions %d)",
				seed, plan.Drop, plan.Epsilon, plan.Demotions)
		}
		if plan.Demotions < 0 || plan.Demotions > 2 {
			t.Fatalf("seed %d: demotions %d out of range", seed, plan.Demotions)
		}
		if !plan.ExitEnabled {
			t.Fatalf("seed %d: exit demoted on separable traffic (drop %v)", seed, plan.Drop)
		}
		if plan.ExitRate <= 0 || plan.ExitRate >= 1 {
			t.Fatalf("seed %d: exit rate %v, want in (0,1)", seed, plan.ExitRate)
		}
		if plan.MaskEnabled && plan.MaskRate <= 0 {
			t.Fatalf("seed %d: masking enabled but never fired", seed)
		}
		// The plan must not leave calibration counts behind: serving
		// counters start from zero.
		if _, total := plan.ExitStats.Counts(); total != 0 {
			t.Fatalf("seed %d: calibration leaked exit counts", seed)
		}
	}
}

// The router is only trained when int8 cleared its own gate, and its
// margin must split calibration traffic between both precisions.
func TestDynamicRouterGatedOnInt8(t *testing.T) {
	net := inferTestNet(t)
	ds := dynCalibData(rand.New(rand.NewSource(23)), 48)

	plan, err := PlanDynamic(net, ds, DynamicOptions{
		MaxAPDrop: 0.05,
		Int8:      &QuantDecision{Enabled: false},
	})
	if err != nil {
		t.Fatal(err)
	}
	if plan.RouterEnabled || plan.Router != nil {
		t.Fatal("router enabled without an int8-gated deployment")
	}

	plan, err = PlanDynamic(net, ds, DynamicOptions{
		MaxAPDrop: 0.05,
		Int8:      &QuantDecision{Enabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !plan.RouterEnabled || plan.Router == nil {
		t.Fatal("router not trained despite int8 gate passing")
	}
	x, _ := ds.Batch(0, len(ds.Samples))
	var int8N, fp32N int
	for i := 0; i < len(ds.Samples); i++ {
		switch plan.Router.Route(x, i) {
		case PrecisionInt8:
			int8N++
		case PrecisionFP32:
			fp32N++
		}
	}
	if int8N == 0 || fp32N == 0 {
		t.Fatalf("router routes everything one way: int8=%d fp32=%d", int8N, fp32N)
	}
}

// Steady-state dynamic inference — exit head firing on part of the
// batch, masked kernels on every conv after the first — must perform
// zero heap allocations per batch, like every other serving path.
func TestDynamicInferSteadyStateZeroAlloc(t *testing.T) {
	net := inferTestNet(t)
	spp, err := SPPIndex(net)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(29))
	ds := dynCalibData(rng, 17)
	x, _ := ds.Batch(0, 16)
	x17, _ := ds.Batch(0, 17)

	// Probe with unit weights; the threshold at the batch median makes
	// half the batch exit and half survive, exercising compaction and
	// scatter on every run.
	head := &ExitHead{W: make([]float32, 32), B: 0}
	for i := range head.W {
		head.W[i] = 1
	}
	a := tensor.NewArena()
	mid := net.InferRange(x, a, 0, spp)
	c, hw := mid.Dim(1), mid.Dim(2)*mid.Dim(3)
	head.W = head.W[:c]
	logits := make([]float32, 16)
	for i := range logits {
		logits[i] = head.Logit(mid.Data()[i*c*hw:(i+1)*c*hw], c, hw)
	}
	sorted := append([]float32(nil), logits...)
	for i := range sorted {
		for j := i + 1; j < len(sorted); j++ {
			if sorted[j] < sorted[i] {
				sorted[i], sorted[j] = sorted[j], sorted[i]
			}
		}
	}
	head.Threshold = sorted[len(sorted)/2]

	plan := &DynamicPlan{
		SPPIndex:      spp,
		ExitEnabled:   true,
		Exit:          head,
		MaskEnabled:   true,
		MaskThreshold: 0.02,
		Stats:         &nn.MaskStats{},
		ExitStats:     &ExitStats{},
	}
	plan.Apply(net)
	exec := NewDynamicExec(net, plan)

	// Each batch runs twice: at the median threshold, and at one nothing
	// exits under, so the tail runs the whole batch — 16 and 17 clips
	// through the FC layers' GEMM route.
	median := head.Threshold
	a.Reset()
	var dets []metrics.Detection
	run := func() {
		for _, b := range []*tensor.Tensor{x, x17} {
			for _, thr := range []float32{median, float32(math.Inf(-1))} {
				head.Threshold = thr
				a.Reset()
				dets = exec.InferDetect(b, a, dets)
			}
		}
	}
	// Each batch at the median threshold must mix exits and survivors,
	// so compaction and scatter run; at -Inf none may exit.
	for _, b := range []*tensor.Tensor{x, x17} {
		for _, thr := range []float32{median, float32(math.Inf(-1))} {
			head.Threshold = thr
			plan.ExitStats.Reset()
			a.Reset()
			dets = exec.InferDetect(b, a, dets)
			exited, total := plan.ExitStats.Counts()
			if thr == median && (exited == 0 || exited == total) {
				t.Fatalf("batch %d does not mix exits and survivors: %d/%d", b.Dim(0), exited, total)
			}
			if thr != median && exited != 0 {
				t.Fatalf("batch %d at threshold -Inf: %d of %d exited, want 0", b.Dim(0), exited, total)
			}
		}
	}
	run()
	run()
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Fatalf("steady-state dynamic InferDetect allocates %v times per run, want 0", allocs)
	}
}
