package model

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"drainnet/internal/ios"
	"drainnet/internal/metrics"
	"drainnet/internal/nn"
	"drainnet/internal/tensor"
)

func scheduledTestPlan(t testing.TB) (*nn.Sequential, *SchedulePlan) {
	t.Helper()
	cfg := OriginalSPPNet().Scaled(8).WithInput(4, 40)
	net, err := cfg.Build(rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	plan, err := OptimizeSchedules(cfg, net, 16, nil)
	if err != nil {
		t.Fatalf("optimize: %v", err)
	}
	return net, plan
}

// BuildScaledGraph must agree with the scaled network Build produces:
// CompileGraph's shape checks are the proof.
func TestBuildScaledGraphMatchesBuild(t *testing.T) {
	cfg := SPPNet2().Scaled(4).WithInput(4, 50)
	net, err := cfg.Build(rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	g, err := cfg.BuildScaledGraph()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nn.CompileGraph(net, g); err != nil {
		t.Fatalf("scaled graph does not bind to the scaled network: %v", err)
	}
	// The unscaled graph must NOT bind at scale > 1 — that mismatch is
	// exactly why BuildScaledGraph exists.
	ug, err := cfg.BuildGraph()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nn.CompileGraph(net, ug); err == nil {
		t.Fatal("unscaled graph unexpectedly bound to a scaled network")
	}
}

// The scheduled serving path must be bit-for-bit identical to the
// sequential fast path (and therefore to Detect) at both planned batch
// regimes, in both precisions — the determinism guarantee behind
// serving with -ios. The int8 plan is measured over the fp32 plan's
// cost cache, as a quantized replica's is: its convs and linears carry
// precision-tagged keys, its pools and SPP reuse the fp32 timings.
func TestInferDetectScheduledMatchesInferDetect(t *testing.T) {
	net, plan := scheduledTestPlan(t)
	rng := rand.New(rand.NewSource(6))
	calib := []*tensor.Tensor{randClip(rng, 8, 4, 40), randClip(rng, 8, 4, 40)}
	qnet, rep, err := nn.QuantizeForInference(net, nn.Calibrate(net, calib))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Quantized == 0 {
		t.Fatalf("no layer quantized: %+v", rep)
	}
	qplan, err := OptimizeSchedules(OriginalSPPNet().Scaled(8).WithInput(4, 40), qnet, 16, plan.Cache)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		precision string
		net       *nn.Sequential
		plan      *SchedulePlan
	}{{"fp32", net, plan}, {"int8", qnet, qplan}} {
		exec1, execN, err := tc.plan.CompileExecutors(tc.net)
		if err != nil {
			t.Fatal(err)
		}
		a := tensor.NewArena()
		var dets, want []metrics.Detection
		for _, n := range []int{1, 4, 16} {
			x := randClip(rng, n, 4, 40)
			exec := exec1
			if n > 1 {
				exec = execN
			}
			a.Reset()
			seqOut := tc.net.Infer(x, a).Data()
			for i, v := range exec.Infer(x, tensor.NewArena()).Data() {
				if math.Float32bits(v) != math.Float32bits(seqOut[i]) {
					t.Fatalf("%s n=%d: scheduled head output %d = %v, sequential %v", tc.precision, n, i, v, seqOut[i])
				}
			}
			a.Reset()
			want = InferDetect(tc.net, x, a, want)
			a.Reset()
			dets = InferDetectScheduled(exec, x, a, dets)
			if len(dets) != len(want) {
				t.Fatalf("%s n=%d: got %d detections, want %d", tc.precision, n, len(dets), len(want))
			}
			for i := range want {
				if dets[i] != want[i] {
					t.Fatalf("%s n=%d: detection %d = %+v, want %+v", tc.precision, n, i, dets[i], want[i])
				}
			}
		}
	}
}

// Scheduled replicas must keep the serving-path allocation guarantee:
// with a warm arena and executor, a steady-state scheduled batch
// allocates nothing. Wired into `make check` (check-allocs).
func TestScheduledSteadyStateZeroAlloc(t *testing.T) {
	net, plan := scheduledTestPlan(t)
	_, execN, err := plan.CompileExecutors(net)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	x := tensor.New(4, 4, 40, 40)
	x.RandNormal(rng, 0, 1)
	a := tensor.NewArena()
	var dets []metrics.Detection
	run := func() {
		a.Reset()
		dets = InferDetectScheduled(execN, x, a, dets)
	}
	run()
	run()
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Fatalf("steady-state scheduled inference allocates %v times per run, want 0", allocs)
	}
}

// A plan round-tripped through the serialized schedule format must
// still drive the executor (the -emit-schedule / LoadSchedule path).
func TestScheduleSerializationDrivesExecutor(t *testing.T) {
	net, plan := scheduledTestPlan(t)
	var buf bytes.Buffer
	if err := ios.SaveSchedule(&buf, plan.BatchN); err != nil {
		t.Fatal(err)
	}
	loaded, err := ios.LoadSchedule(&buf, plan.Graph)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := nn.CompileGraph(net, plan.Graph)
	if err != nil {
		t.Fatal(err)
	}
	exec, err := nn.NewScheduleExecutor(prog, loaded)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	x := tensor.New(2, 4, 40, 40)
	x.RandNormal(rng, 0, 1)
	a := tensor.NewArena()
	var dets, want []metrics.Detection
	want = InferDetect(net, x, a, want)
	a.Reset()
	dets = InferDetectScheduled(exec, x, a, dets)
	for i := range want {
		if dets[i] != want[i] {
			t.Fatalf("detection %d = %+v, want %+v", i, dets[i], want[i])
		}
	}
}
