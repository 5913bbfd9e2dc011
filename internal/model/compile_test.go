package model

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"drainnet/internal/metrics"
	"drainnet/internal/nn"
	"drainnet/internal/tensor"
	"drainnet/internal/terrain"
)

func compileTestConfig() Config { return OriginalSPPNet().Scaled(8).WithInput(4, 40) }

// compileTestNet builds an unpacked net; the same seed always yields
// the same weights, so a compiled net and a hand-chained twin agree.
func compileTestNet(t testing.TB) *nn.Sequential {
	t.Helper()
	net, err := compileTestConfig().Build(rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return net
}

// detectFunc is the shape of every serving path under comparison.
type detectFunc func(x *tensor.Tensor, a *tensor.Arena, dst []metrics.Detection) []metrics.Detection

func sequential(net *nn.Sequential) detectFunc {
	return func(x *tensor.Tensor, a *tensor.Arena, dst []metrics.Detection) []metrics.Detection {
		return InferDetect(net, x, a, dst)
	}
}

// Compile must reproduce, bit for bit, the same building blocks chained
// by hand in the order serving always ran them — per mode, on the main
// executor and (when the plan routes) the int8 one — and the exact modes
// must also agree with the training-graph Detect. Measurement-driven
// steps share one cost cache between the two sides, so both see the same
// costs and make the same choices.
func TestCompileMatchesHandChain(t *testing.T) {
	const maxBatch = 8
	cfg := compileTestConfig()
	input := []int{cfg.InBands, cfg.InSize, cfg.InSize}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name      string
		opts      CompileOptions
		precision Precision // label the plan must carry
		exact     bool      // also bit-identical to Detect
		noCalib   bool      // must not evaluate the calibration source
		hand      func(net *nn.Sequential, ds *terrain.Dataset, cache *CostCache) (main, routed detectFunc)
	}{
		{
			name: "fp32", precision: PrecisionFP32, exact: true, noCalib: true,
			hand: func(net *nn.Sequential, _ *terrain.Dataset, _ *CostCache) (detectFunc, detectFunc) {
				return sequential(net), nil
			},
		},
		{
			name: "int8 pass", opts: CompileOptions{Precision: PrecisionInt8, MaxAPDrop: 1}, precision: PrecisionInt8,
			hand: func(net *nn.Sequential, ds *terrain.Dataset, _ *CostCache) (detectFunc, detectFunc) {
				dec, err := QuantizeGated(net, ds, QuantOptions{MaxAPDrop: 1})
				must(err)
				return sequential(dec.Net), nil
			},
		},
		{
			name: "auto with a failing gate", opts: CompileOptions{Precision: PrecisionAuto, MaxAPDrop: -1},
			precision: PrecisionFP32, exact: true,
			hand: func(net *nn.Sequential, _ *terrain.Dataset, _ *CostCache) (detectFunc, detectFunc) {
				return sequential(net), nil
			},
		},
		{
			name: "autotune", opts: CompileOptions{Autotune: true, MaxAPDrop: 0.05}, precision: PrecisionFP32,
			hand: func(net *nn.Sequential, ds *terrain.Dataset, cache *CostCache) (detectFunc, detectFunc) {
				kplan, err := AutotuneKernels(net, nil, input, ds,
					KernelOptions{Batches: []int{1, maxBatch}, MaxAPDrop: 0.05, Cache: cache})
				must(err)
				return sequential(kplan.Served), nil
			},
		},
		{
			name: "dynamic", opts: CompileOptions{Dynamic: true, MaxAPDrop: 0.05}, precision: PrecisionFP32,
			hand: func(net *nn.Sequential, ds *terrain.Dataset, _ *CostCache) (detectFunc, detectFunc) {
				dplan, err := PlanDynamic(net, ds, DynamicOptions{MaxAPDrop: 0.05})
				must(err)
				dplan.Apply(net)
				return NewDynamicExec(net, dplan).InferDetect, nil
			},
		},
		{
			name: "dynamic+router", opts: CompileOptions{Dynamic: true, Precision: PrecisionAuto, MaxAPDrop: 0.05},
			precision: PrecisionFP32,
			hand: func(net *nn.Sequential, ds *terrain.Dataset, _ *CostCache) (detectFunc, detectFunc) {
				dec, err := QuantizeGated(net, ds, QuantOptions{MaxAPDrop: 0.05})
				must(err)
				dplan, err := PlanDynamic(net, ds, DynamicOptions{MaxAPDrop: 0.05, Int8: dec})
				must(err)
				if !dplan.RouterEnabled {
					t.Fatalf("router not enabled (int8 gate enabled=%t)", dec.Enabled)
				}
				dplan.Apply(net)
				return NewDynamicExec(net, dplan).InferDetect, NewDynamicExec(dec.Net, dplan).InferDetect
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ds := dynCalibData(rand.New(rand.NewSource(29)), 48)
			cache := NewCostCache()
			calibCalls := 0
			opts := tc.opts
			opts.MaxBatch, opts.CostCache = maxBatch, cache
			plan, err := Compile(cfg, compileTestNet(t), func() (*terrain.Dataset, error) {
				calibCalls++
				return ds, nil
			}, opts)
			must(err)
			if calibCalls > 1 || (tc.noCalib && calibCalls != 0) {
				t.Fatalf("calibration source evaluated %d times", calibCalls)
			}
			if plan.Precision != tc.precision {
				t.Fatalf("plan precision %q, want %q", plan.Precision, tc.precision)
			}
			exec, routed, err := plan.NewReplica()
			must(err)

			handNet := compileTestNet(t)
			handMain, handRouted := tc.hand(handNet, ds, cache)
			nn.PrepareInference(handNet)
			if (routed != nil) != (handRouted != nil) {
				t.Fatalf("routed executor present=%t, hand chain present=%t", routed != nil, handRouted != nil)
			}

			ref := compileTestNet(t)
			a, ha := tensor.NewArena(), tensor.NewArena()
			for _, n := range []int{1, 3, maxBatch} {
				x, _ := ds.Batch(0, n)
				compare := func(path string, got Executor, want detectFunc) {
					t.Helper()
					a.Reset()
					ha.Reset()
					g, w := got.InferDetect(x, a, nil), want(x, ha, nil)
					if len(g) != n || len(w) != n {
						t.Fatalf("%s batch %d: %d compiled / %d hand-chained detections", path, n, len(g), len(w))
					}
					for i := range g {
						if g[i] != w[i] {
							t.Fatalf("%s batch %d sample %d: compiled %+v, hand-chained %+v", path, n, i, g[i], w[i])
						}
					}
				}
				compare("main", exec, handMain)
				if routed != nil {
					compare("routed", routed, handRouted)
				}
				if tc.exact {
					compare("reference", exec, func(x *tensor.Tensor, _ *tensor.Arena, _ []metrics.Detection) []metrics.Detection {
						return Detect(ref, x)
					})
				}
			}
		})
	}
}

// -precision int8 with a failed gate is a distinguishable error carrying
// the gate's evidence, so the caller can print its own refusal.
func TestCompileInt8GateFailureIsTyped(t *testing.T) {
	ds := dynCalibData(rand.New(rand.NewSource(31)), 32)
	_, err := Compile(compileTestConfig(), compileTestNet(t),
		func() (*terrain.Dataset, error) { return ds, nil },
		CompileOptions{Precision: PrecisionInt8, MaxAPDrop: -1})
	var gate *QuantGateError
	if !errors.As(err, &gate) {
		t.Fatalf("err = %v, want *QuantGateError", err)
	}
	if gate.Decision == nil || gate.Decision.Enabled || gate.Decision.Epsilon != -1 {
		t.Fatalf("gate evidence %+v", gate.Decision)
	}
}

// A plain fp32 compile has no gate to score, so it must never build the
// calibration split — that is what keeps a static server's startup in
// the milliseconds.
func TestCompilePlainFP32NeverLoadsCalib(t *testing.T) {
	plan, err := Compile(compileTestConfig(), compileTestNet(t),
		func() (*terrain.Dataset, error) {
			t.Fatal("plain fp32 compile evaluated the calibration source")
			return nil, nil
		},
		CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Quant != nil || plan.Kernels != nil || plan.Dynamic != nil {
		t.Fatalf("plain compile ran a step: %+v", plan)
	}
	if plan.KernelReport() != nil || plan.Router != nil {
		t.Fatal("plain compile reports kernels or a router")
	}
}

// Regression: under autotune + dynamic the served net is the fp32 net
// with every conv after the first overridden to the masked kernel, so
// the report must describe those modules — not the tuner's choices.
func TestCompileKernelReportMatchesServed(t *testing.T) {
	ds := dynCalibData(rand.New(rand.NewSource(37)), 48)
	// Epsilon 1 passes every gate: int8 competes in the tuner and masking
	// survives the ladder, so both overrides are in play.
	plan, err := Compile(compileTestConfig(), compileTestNet(t),
		func() (*terrain.Dataset, error) { return ds, nil },
		CompileOptions{Precision: PrecisionAuto, Autotune: true, Dynamic: true, MaxAPDrop: 1, MaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Dynamic.MaskEnabled {
		t.Fatal("masking demoted at epsilon 1")
	}
	report := plan.KernelReport()
	if len(report) != len(plan.Kernels.Layers) || len(report) < 2 {
		t.Fatalf("report has %d layers, tuner %d", len(report), len(plan.Kernels.Layers))
	}
	mods := plan.Served.Modules()
	for i, l := range report {
		conv, ok := mods[l.Layer].(*nn.Conv2D)
		if !ok {
			t.Fatalf("layer %d: served module is %T, dynamic main path must be fp32", l.Layer, mods[l.Layer])
		}
		b1, bn := conv.Kernels()
		if l.Precision != string(PrecisionFP32) || l.Batch1 != b1.String() || l.BatchN != bn.String() {
			t.Fatalf("layer %d reported %+v, served conv runs fp32 %s/%s", l.Layer, l, b1, bn)
		}
		tuned := plan.Kernels.Layers[i]
		if i > 0 {
			if l.Batch1 != nn.KernelMasked.String() || l.BatchN != nn.KernelMasked.String() {
				t.Fatalf("layer %d reported %s/%s, want masked", l.Layer, l.Batch1, l.BatchN)
			}
			if l.SpeedupB1 != 0 || l.SpeedupBN != 0 {
				t.Fatalf("layer %d keeps the tuner's speedups for a kernel that is not serving: %+v", l.Layer, l)
			}
		} else if tuned.Precision == string(PrecisionFP32) && l != tuned {
			t.Fatalf("first conv is not masked and serves the tuner's fp32 choice: report %+v, tuner %+v", l, tuned)
		}
	}
}

// The first replica is the served network itself; every later one must
// share its weight tensors — a replica is scratch-only, not a full copy,
// so N replicas cost N arenas, not N weight sets — but never the module
// tree itself, or layer caches would race.
func TestPlanReplicasShareWeightTensors(t *testing.T) {
	plan, err := Compile(compileTestConfig(), compileTestNet(t), nil, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	base := plan.Served.Params()
	seen := map[*nn.Sequential]bool{}
	for r := 0; r < 3; r++ {
		exec, _, err := plan.NewReplica()
		if err != nil {
			t.Fatal(err)
		}
		net := exec.(seqExec).net
		if (net == plan.Served) != (r == 0) {
			t.Fatalf("replica %d: is the served net itself = %t", r, net == plan.Served)
		}
		if seen[net] {
			t.Fatalf("replica %d shares a module tree; caches would race", r)
		}
		seen[net] = true
		params := net.Params()
		if len(params) != len(base) {
			t.Fatalf("replica %d has %d params, served net has %d", r, len(params), len(base))
		}
		for i := range base {
			if params[i].Value != base[i].Value {
				t.Fatalf("replica %d param %q value tensor was copied, not shared", r, base[i].Name)
			}
		}
	}
}

// A replica built with a stage hook keeps the serving path's allocation
// guarantee: a warm traced batch allocates nothing on any route — the
// hook times the blocks the executor runs anyway. Wired into `make
// check` (check-allocs).
func TestTracedInferSteadyStateZeroAlloc(t *testing.T) {
	ds := dynCalibData(rand.New(rand.NewSource(41)), 32)
	calib := func() (*terrain.Dataset, error) { return ds, nil }
	x, _ := ds.Batch(0, 4)
	for _, tc := range []struct {
		name string
		opts CompileOptions
	}{
		{"fp32", CompileOptions{}},
		{"int8", CompileOptions{Precision: PrecisionInt8, MaxAPDrop: 1}},
		{"dynamic", CompileOptions{Dynamic: true, MaxAPDrop: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plan, err := Compile(compileTestConfig(), compileTestNet(t), calib, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			stages := 0
			exec, _, err := plan.NewReplica(func(int, string, time.Time, time.Duration) { stages++ })
			if err != nil {
				t.Fatal(err)
			}
			a := tensor.NewArena()
			var dets []metrics.Detection
			run := func() {
				a.Reset()
				dets = exec.InferDetect(x, a, dets)
			}
			run()
			run()
			if stages == 0 {
				t.Fatal("the hook saw no stage")
			}
			if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
				t.Fatalf("steady-state traced InferDetect allocates %v times per run, want 0", allocs)
			}
		})
	}
}
