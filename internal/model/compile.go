package model

import (
	"fmt"
	"time"

	"drainnet/internal/metrics"
	"drainnet/internal/nn"
	"drainnet/internal/tensor"
	"drainnet/internal/terrain"
)

// This file is the one place that assembles a network for serving.
// Compile alone knows the legal order of the three accuracy-gated steps
// (QuantizeGated, AutotuneKernels, PlanDynamic) and which network each
// one sees; drainnet-serve and the NAS loop both call it and run the
// Executor its Plan hands out, so what a search priced is what serves.

// Executor runs one serving replica's forward pass and decodes the head
// into detections. It owns per-replica layer caches, so one goroutine at
// a time; the caller owns the arena and Resets it between batches.
// InferDetect is the serving path: zero heap allocations in steady state
// with a warm arena and cap(dst) ≥ batch size, whether or not the
// replica was built with a stage hook.
type Executor interface {
	InferDetect(x *tensor.Tensor, a *tensor.Arena, dst []metrics.Detection) []metrics.Detection
}

// seqExec is the sequential zero-alloc fast path over one replica net.
type seqExec struct{ net *nn.Sequential }

func (e seqExec) InferDetect(x *tensor.Tensor, a *tensor.Arena, dst []metrics.Detection) []metrics.Detection {
	return InferDetect(e.net, x, a, dst)
}

// CalibSource yields the held-out split the accuracy gates score on.
// Compile calls it at most once and only when a requested step scores a
// gate, so a plain fp32 deployment never pays for building the split.
type CalibSource func() (*terrain.Dataset, error)

// CompileOptions selects the pipeline steps — one field per
// drainnet-serve pipeline flag.
type CompileOptions struct {
	// Precision is the requested serving precision (empty → fp32). A
	// failed gate is a *QuantGateError under int8, an fp32 fallback
	// under auto.
	Precision Precision
	// MaxAPDrop is the accuracy gate's epsilon: the largest tolerated
	// absolute AP drop below the loaded net on the calibration split,
	// taken as given by every step.
	MaxAPDrop float64
	// Autotune serves the fastest accuracy-gated per-layer kernel mix.
	Autotune bool
	// Dynamic serves the early-exit / masked path on the fp32 net, with
	// a gated int8 net behind the difficulty router.
	Dynamic bool
	// MaxBatch is the large-batch bucket kernels are tuned for (≤ 0 → 8,
	// the batcher default).
	MaxBatch int
	// CostCache memoizes the autotuner's measurements (the caller loads
	// and saves it across processes). Nil starts a fresh one.
	CostCache *CostCache
}

// QuantGateError is returned when int8 was requested outright and the
// accuracy gate refused it; Decision carries the evidence.
type QuantGateError struct{ Decision *QuantDecision }

func (e *QuantGateError) Error() string {
	return fmt.Sprintf("model: int8 requested but the accuracy gate failed (AP drop %.4f > epsilon %.4f)",
		e.Decision.Drop, e.Decision.Epsilon)
}

// Plan is a compiled deployment: the network to serve plus the decision
// report of every step that ran (nil for steps that did not).
type Plan struct {
	// Served is the main-path network, packed for inference: the first
	// replica, and the weights every later one shares.
	Served *nn.Sequential
	// Precision labels Served: int8 when any module is quantized.
	Precision Precision
	// Quant is the int8 gate decision, Kernels the autotuner's outcome,
	// Dynamic the dynamic-inference plan (its Stats/ExitStats carry the
	// live serving counters).
	Quant   *QuantDecision
	Kernels *KernelPlan
	Dynamic *DynamicPlan
	// Router sends easy clips to the int8 replica path backed by int8Net;
	// both are nil unless the plan routes.
	Router  *Router
	int8Net *nn.Sequential
	// PackTime is the one-time weight-packing cost of Served.
	PackTime time.Duration

	handedOut bool // NewReplica has given Served itself away
}

// Compile assembles net for serving: quantization gate → kernel
// autotuning → dynamic planning → weight packing, each step only when
// opts asks and each pricing the operators the previous ones left in
// place. net must implement cfg; its conv kernels may be retargeted in
// place.
func Compile(cfg Config, net *nn.Sequential, calib CalibSource, opts CompileOptions) (*Plan, error) {
	if opts.MaxBatch <= 0 {
		opts.MaxBatch = 8
	}
	if opts.CostCache == nil {
		opts.CostCache = NewCostCache()
	}
	if opts.Precision == "" {
		opts.Precision = PrecisionFP32
	} else if _, err := ParsePrecision(string(opts.Precision)); err != nil {
		return nil, err
	}
	// The one accuracy gate: net as loaded, scored on the split before any
	// step retargets a kernel, is the baseline every step answers to.
	var g *gate
	if calib != nil && (opts.Precision != PrecisionFP32 || opts.Autotune || opts.Dynamic) {
		ds, err := calib()
		if err != nil {
			return nil, err
		}
		g = newGate(net, ds, opts.MaxAPDrop)
	}

	// net stays the unquantized network throughout — the autotuner
	// retargets its convs, the dynamic path serves it while qnet moves to
	// the routed one; p.Served tracks what the steps so far would serve.
	p := &Plan{Served: net}
	var qnet *nn.Sequential

	if opts.Precision != PrecisionFP32 {
		dec, err := quantizeGated(net, g)
		if err != nil {
			return nil, err
		}
		p.Quant = dec
		if dec.Enabled {
			qnet = dec.Net
			p.Served = qnet
		} else if opts.Precision == PrecisionInt8 {
			return nil, &QuantGateError{Decision: dec}
		}
	}

	if opts.Autotune {
		kplan, err := autotuneKernels(net, qnet, []int{cfg.InBands, cfg.InSize, cfg.InSize}, g,
			KernelOptions{Batches: []int{1, opts.MaxBatch}, MaxAPDrop: opts.MaxAPDrop, Cache: opts.CostCache})
		if err != nil {
			return nil, err
		}
		p.Kernels = kplan
		p.Served = kplan.Served
	}

	if opts.Dynamic {
		dplan, err := planDynamic(net, g, p.Quant)
		if err != nil {
			return nil, err
		}
		// Masks go on before packing and cloning, so every replica shares
		// the plan's mask spec and skip counters.
		dplan.Apply(net)
		p.Dynamic = dplan
		p.Served = net
		if dplan.RouterEnabled {
			p.Router, p.int8Net = dplan.Router, qnet
		}
	}

	start := time.Now()
	nn.PrepareInferenceParallel(p.Served)
	p.PackTime = time.Since(start)
	if p.int8Net != nil {
		nn.PrepareInference(p.int8Net)
	}

	p.Precision = PrecisionFP32
	for _, m := range p.Served.Modules() {
		if nn.Unwrap(m) != m {
			p.Precision = PrecisionInt8
			break
		}
	}
	return p, nil
}

// NewReplica returns a fresh serving replica: an Executor bound to the
// path the plan compiled, over Served itself the first time (left idle,
// its layers' task descriptors would pin the last calibration arena) and
// over a shared-weight clone after that. routed is the int8 routed-path
// twin, nil unless the plan routes. Calls must not race.
//
// hook, when given (at most one), times every stage both executors run:
// the fused blocks of the sequential and dynamic paths and the dynamic
// exit probe, one after another on the replica's goroutine.
func (p *Plan) NewReplica(hook ...nn.StageHook) (exec, routed Executor, err error) {
	var h nn.StageHook
	if len(hook) > 0 {
		h = hook[0]
	}
	first := !p.handedOut
	p.handedOut = true
	net, err := replicaNet(p.Served, first, h)
	if err != nil {
		return nil, nil, err
	}
	if p.Dynamic == nil {
		return seqExec{net}, nil, nil
	}
	d := NewDynamicExec(net, p.Dynamic)
	d.hook, exec = h, d
	if p.int8Net != nil {
		i8, err := replicaNet(p.int8Net, first, h)
		if err != nil {
			return nil, nil, err
		}
		d := NewDynamicExec(i8, p.Dynamic)
		d.hook, routed = h, d
	}
	return exec, routed, nil
}

// replicaNet returns base itself (first) or a shared-weight clone of it,
// with hook bound to its inference passes.
func replicaNet(base *nn.Sequential, first bool, hook nn.StageHook) (*nn.Sequential, error) {
	net := base
	if !first {
		m, err := nn.CloneShared(base)
		if err != nil {
			return nil, err
		}
		net = m.(*nn.Sequential)
	}
	net.SetStageHook(hook)
	return net, nil
}

// KernelReport lists the conv kernels Served actually runs, one entry
// per autotuned layer (nil when the autotuner did not run). The dynamic
// step overrides the tuner — it serves the fp32 net and masks every conv
// after the first — so kernels and precision are read off the served
// modules, and the tuner's measured speedups are kept only where the
// served kernel is still its choice.
func (p *Plan) KernelReport() []LayerKernel {
	if p.Kernels == nil {
		return nil
	}
	mods := p.Served.Modules()
	out := make([]LayerKernel, len(p.Kernels.Layers))
	for i, tuned := range p.Kernels.Layers {
		lk := LayerKernel{Layer: tuned.Layer, Name: tuned.Name,
			Precision: string(PrecisionInt8), Batch1: KernelInt8, BatchN: KernelInt8}
		if c, ok := mods[tuned.Layer].(*nn.Conv2D); ok {
			b1, bn := c.Kernels()
			lk.Precision, lk.Batch1, lk.BatchN = string(PrecisionFP32), b1.String(), bn.String()
		}
		if lk.Batch1 == tuned.Batch1 {
			lk.SpeedupB1 = tuned.SpeedupB1
		}
		if lk.BatchN == tuned.BatchN {
			lk.SpeedupBN = tuned.SpeedupBN
		}
		out[i] = lk
	}
	return out
}
