package model

import (
	"fmt"
	"runtime"
	"strings"

	"drainnet/internal/nn"
	"drainnet/internal/tensor"
	"drainnet/internal/terrain"
)

// Per-layer kernel autotuning: the paper's selection rule — maximize
// efficiency subject to an accuracy floor — applied one level below
// quantization, to the convolution kernels themselves. For every conv
// layer and batch bucket the tuner measures each eligible kernel variant
// (im2col+GEMM, Winograd F(2,3), cache-blocked NCHWc, direct) plus the
// int8 path when a quantized network is available, picks the fastest,
// and gates the result: exact kernels are bitwise and pass trivially,
// while a mix containing Winograd (or int8 layers) must keep the
// held-out AP drop within epsilon, with a demotion ladder down to the
// always-safe pure-fp32 im2col mix.
//
// Each (layer, kernel, batch) is timed by convProbe.cost — warmup runs,
// then the trimmed mean of samples stretched above clock granularity
// (TimeTrimmed) — and memoized in the CostCache under a key naming the
// conv geometry, the kernel, the batch and GOMAXPROCS, so a saved cache
// makes retuning on the same host instant.

// The protocol of one kernel measurement: probeWarmup discarded runs, then
// probeSamples timed runs, each repeated to at least probeMinSampleNs.
const (
	probeWarmup      = 2
	probeSamples     = 10
	probeMinSampleNs = 2e5
)

// KernelInt8 is the pseudo-variant name for a conv layer served by its
// int8 wrapper instead of an fp32 kernel.
const KernelInt8 = "int8"

// KernelOptions configures AutotuneKernels.
type KernelOptions struct {
	// Batches are the batch buckets to tune; the bucket 1 choice drives
	// Conv2D's batch-1 kernel, the largest bucket drives the batch->1
	// kernel and the per-layer precision. Default {1, 16}.
	Batches []int
	// MaxAPDrop is the gate epsilon for non-exact mixes (default 0 — any
	// drop demotes; set to the serving tolerance, e.g. 0.01).
	MaxAPDrop float64
	// Cache is an optional warm measurement cache (LoadCostCache);
	// a fresh one is created when nil. Retrieve it from the returned
	// plan's Cache field to save after tuning.
	Cache *CostCache
}

// LayerKernel is one conv layer's tuned serving choice.
type LayerKernel struct {
	// Layer is the module index within the Sequential; Name describes
	// the layer (channels and geometry).
	Layer int    `json:"layer"`
	Name  string `json:"name"`
	// Precision is "fp32" or "int8". For int8 layers the kernel fields
	// echo "int8" in both buckets.
	Precision string `json:"precision"`
	// Batch1/BatchN are the selected kernel names per bucket.
	Batch1 string `json:"batch1"`
	BatchN string `json:"batchN"`
	// SpeedupB1/SpeedupBN are measured im2col-cost / chosen-cost ratios.
	SpeedupB1 float64 `json:"speedup_batch1"`
	SpeedupBN float64 `json:"speedup_batchN"`
}

// KernelPlan is the outcome of AutotuneKernels.
type KernelPlan struct {
	// Served is the network to serve. Without a quantized net it is the
	// fp32 net with tuned kernels. With one, it starts from the quantized
	// net (linears keep their gated int8 kernels) with the tuned fp32
	// conv swapped in wherever fp32 measured faster than int8 — unless
	// the gate ladder reverted everything, in which case it is the fp32
	// net again.
	Served *nn.Sequential `json:"-"`
	// Layers holds one entry per conv layer in model order.
	Layers []LayerKernel `json:"layers"`
	// Batches echoes the tuned buckets.
	Batches []int `json:"batches"`
	// FP32AP, TunedAP and Drop report the accuracy gate (zero when the
	// final mix is exact and no evaluation was needed).
	FP32AP  float64 `json:"fp32_ap"`
	TunedAP float64 `json:"tuned_ap"`
	Drop    float64 `json:"drop"`
	Epsilon float64 `json:"epsilon"`
	// Demotions counts gate-ladder steps taken: 0 = first mix served,
	// 1 = Winograd demoted to exact kernels, 2 = int8 layers reverted too.
	Demotions int `json:"demotions"`
	// Cache is the measurement cache after tuning (save for warm restarts);
	// Measured counts the entries this tuning run added to it.
	Cache    *CostCache `json:"-"`
	Measured int        `json:"-"`
}

// Mix summarizes the plan as "name:b1/bN" fragments for log lines.
func (p *KernelPlan) Mix() string {
	frags := make([]string, len(p.Layers))
	for i, l := range p.Layers {
		frags[i] = fmt.Sprintf("%s:%s/%s", l.Name, l.Batch1, l.BatchN)
	}
	return strings.Join(frags, " ")
}

// tunable is one conv layer under tuning.
type tunable struct {
	idx   int
	conv  *nn.Conv2D
	qconv *nn.QuantConv2D // int8 competitor; nil when unavailable
	relu  bool
	in    []int // per-sample input shape (C,H,W)
	name  string
}

// fusedConv is what the tuner times: one conv layer's fused conv+ReLU
// forward, fp32 (*nn.Conv2D) or int8 (*nn.QuantConv2D).
type fusedConv interface {
	InferFused(x *tensor.Tensor, a *tensor.Arena, relu bool) *tensor.Tensor
}

// convProbe prices (layer, kernel, batch) combinations, memoizing every
// measurement in cache.
type convProbe struct {
	cache           *CostCache
	inputs, scratch *tensor.Arena
}

// cost returns the trimmed-mean nanoseconds of one forward of conv — layer
// tc served by kernel kern — at the batch size, measuring on a cache miss.
func (p *convProbe) cost(tc *tunable, conv fusedConv, kern string, batch int) float64 {
	g := tc.conv.Geom
	key := fmt.Sprintf("conv|p%d|b%d|in=%dx%dx%d|out=%d|k=%dx%d|s=%dx%d|pad=%dx%d|kern=%s",
		runtime.GOMAXPROCS(0), batch, tc.in[0], tc.in[1], tc.in[2], tc.conv.OutC,
		g.KH, g.KW, g.StrideH, g.StrideW, g.PadH, g.PadW, kern)
	if c, ok := p.cache.Get(key); ok {
		return c
	}
	p.inputs.Reset()
	x := p.inputs.Get(batch, tc.in[0], tc.in[1], tc.in[2])
	tensor.FillPseudo(x.Data(), tensor.PseudoSeed)
	c := TimeTrimmed(func(reps int) {
		for i := 0; i < reps; i++ {
			p.scratch.Reset()
			conv.InferFused(x, p.scratch, tc.relu)
		}
	}, probeWarmup, probeSamples, probeMinSampleNs)
	p.cache.Put(key, c)
	return c
}

// AutotuneKernels measures every eligible kernel variant of every conv
// layer in fp32Net at the requested batch buckets, applies the fastest
// mix, and gates it on calib against fp32Net as given. qnet, when
// non-nil, is an already-gated int8 copy of fp32Net (QuantizeGated's
// net) whose conv layers compete in the same measurement; layers where
// int8 wins at the serving bucket are served by the int8 wrapper. input
// is the per-sample input shape (C,H,W). fp32Net's conv layers are
// retargeted in place; the returned plan's Served net shares their
// weights.
//
// calib may be nil, in which case Winograd (the only non-exact fp32
// kernel) is demoted wherever it wins — there is no data to prove it
// safe — and exact kernels are still tuned.
func AutotuneKernels(fp32Net, qnet *nn.Sequential, input []int, calib *terrain.Dataset, opts KernelOptions) (*KernelPlan, error) {
	return autotuneKernels(fp32Net, qnet, input, newGate(fp32Net, calib, opts.MaxAPDrop), opts)
}

// autotuneKernels is AutotuneKernels against g (nil: no calibration
// data), whose baseline is fp32Net before any retargeting.
func autotuneKernels(fp32Net, qnet *nn.Sequential, input []int, g *gate, opts KernelOptions) (*KernelPlan, error) {
	if len(input) != 3 {
		return nil, fmt.Errorf("model: autotune input shape must be (C,H,W), got %v", input)
	}
	if len(opts.Batches) == 0 {
		opts.Batches = []int{1, 16}
	}
	maxBatch, minBatch := opts.Batches[0], opts.Batches[0]
	for _, b := range opts.Batches {
		if b > maxBatch {
			maxBatch = b
		}
		if b < minBatch {
			minBatch = b
		}
	}

	tun, err := collectTunables(fp32Net, qnet, input)
	if err != nil {
		return nil, err
	}
	plan := &KernelPlan{Batches: opts.Batches, Epsilon: opts.MaxAPDrop}
	if g != nil {
		plan.FP32AP = g.baseline
	}

	// Measure every (layer, variant, bucket).
	if opts.Cache == nil {
		opts.Cache = NewCostCache()
	}
	probe := &convProbe{cache: opts.Cache, inputs: tensor.NewArena(), scratch: tensor.NewArena()}
	plan.Cache = opts.Cache
	cached := plan.Cache.Len()
	type variantCost map[nn.ConvKernel]map[int]float64
	fpCosts := make([]variantCost, len(tun))
	i8Costs := make([]map[int]float64, len(tun))
	for li := range tun {
		tc := &tun[li]
		fpCosts[li] = make(variantCost)
		for _, k := range nn.ConvKernels() {
			if !tc.conv.KernelEligible(k) {
				continue
			}
			replica, err := nn.CloneShared(tc.conv)
			if err != nil {
				return nil, fmt.Errorf("model: autotune: %w", err)
			}
			rc := replica.(*nn.Conv2D)
			rc.SetKernels(k, k)
			fpCosts[li][k] = make(map[int]float64)
			for _, b := range opts.Batches {
				fpCosts[li][k][b] = probe.cost(tc, rc, k.String(), b)
			}
		}
		if tc.qconv != nil {
			i8Costs[li] = make(map[int]float64)
			for _, b := range opts.Batches {
				i8Costs[li][b] = probe.cost(tc, tc.qconv, KernelInt8, b)
			}
		}
	}
	plan.Measured = plan.Cache.Len() - cached

	// Select per layer: fastest fp32 kernel per bucket; precision by the
	// serving (largest) bucket.
	bestAt := func(li, b int, exactOnly bool) (nn.ConvKernel, float64) {
		best, bestCost := nn.KernelIm2Col, fpCosts[li][nn.KernelIm2Col][b]
		for _, k := range nn.ConvKernels() {
			if c, ok := fpCosts[li][k]; ok && (k.Exact() || !exactOnly) && c[b] < bestCost {
				best, bestCost = k, c[b]
			}
		}
		return best, bestCost
	}
	type choice struct {
		int8   bool
		b1, bn nn.ConvKernel
	}
	choices := make([]choice, len(tun))
	for li := range tun {
		b1, _ := bestAt(li, minBatch, false)
		bn, bnCost := bestAt(li, maxBatch, false)
		ch := choice{b1: b1, bn: bn}
		if i8Costs[li] != nil && i8Costs[li][maxBatch] < bnCost {
			ch.int8 = true
		}
		choices[li] = ch
	}

	apply := func() {
		for li, tc := range tun {
			if choices[li].int8 {
				continue
			}
			tc.conv.SetKernels(choices[li].b1, choices[li].bn)
		}
	}
	assemble := func() *nn.Sequential {
		if qnet == nil {
			return fp32Net
		}
		// Start from the quantized net — its linears (and any other gated
		// modules) keep their int8 kernels — and swap in the tuned fp32
		// conv wherever the fp32 mix measured faster.
		qmods := qnet.Modules()
		mods := make([]nn.Module, len(qmods))
		copy(mods, qmods)
		for li, tc := range tun {
			if !choices[li].int8 {
				mods[tc.idx] = tc.conv
			}
		}
		return nn.NewSequential(mods...)
	}

	apply()
	plan.Served = assemble()

	// Accuracy gate and demotion ladder. Exact all-fp32 mixes skip the
	// evaluation entirely: they are bitwise-identical to the reference.
	// With a quantized net in play the served net carries int8 linears,
	// so the mix is never exact.
	mixExact := func() bool {
		if qnet != nil {
			return false
		}
		for _, ch := range choices {
			if ch.int8 || !ch.b1.Exact() || !ch.bn.Exact() {
				return false
			}
		}
		return true
	}
	demoteWinograd := func() {
		for li := range choices {
			if !choices[li].b1.Exact() {
				choices[li].b1, _ = bestAt(li, minBatch, true)
			}
			if !choices[li].bn.Exact() {
				choices[li].bn, _ = bestAt(li, maxBatch, true)
			}
		}
	}
	if !mixExact() {
		if g == nil {
			// No data to prove Winograd safe: demote it, keep int8 choices
			// only if a quantized net was supplied (it passed its own gate).
			demoteWinograd()
			plan.Demotions = 1
			apply()
			plan.Served = assemble()
		} else if v := g.check(seqExec{plan.Served}); v.Pass {
			plan.TunedAP, plan.Drop = v.AP, v.Drop
		} else {
			demoteWinograd()
			plan.Demotions = 1
			apply()
			plan.Served = assemble()
			if mixExact() {
				plan.TunedAP, plan.Drop = plan.FP32AP, 0
			} else if v := g.check(seqExec{plan.Served}); v.Pass {
				plan.TunedAP, plan.Drop = v.AP, v.Drop
			} else {
				// Final rung: pure tuned-fp32 exact mix, bitwise safe.
				for li := range choices {
					choices[li].int8 = false
				}
				plan.Demotions = 2
				apply()
				plan.Served = fp32Net
				plan.TunedAP, plan.Drop = plan.FP32AP, 0
			}
		}
	} else if g != nil {
		plan.TunedAP, plan.Drop = plan.FP32AP, 0
	}

	// Report.
	for li, tc := range tun {
		ch := choices[li]
		lk := LayerKernel{Layer: tc.idx, Name: tc.name, Precision: string(PrecisionFP32)}
		if ch.int8 {
			lk.Precision = string(PrecisionInt8)
			lk.Batch1, lk.BatchN = KernelInt8, KernelInt8
			lk.SpeedupB1 = ratio(fpCosts[li][nn.KernelIm2Col][minBatch], i8Costs[li][minBatch])
			lk.SpeedupBN = ratio(fpCosts[li][nn.KernelIm2Col][maxBatch], i8Costs[li][maxBatch])
		} else {
			lk.Batch1, lk.BatchN = ch.b1.String(), ch.bn.String()
			lk.SpeedupB1 = ratio(fpCosts[li][nn.KernelIm2Col][minBatch], fpCosts[li][ch.b1][minBatch])
			lk.SpeedupBN = ratio(fpCosts[li][nn.KernelIm2Col][maxBatch], fpCosts[li][ch.bn][maxBatch])
		}
		plan.Layers = append(plan.Layers, lk)
	}
	return plan, nil
}

func ratio(ref, v float64) float64 {
	if v <= 0 {
		return 0
	}
	return ref / v
}

// collectTunables walks the fp32 net, tracking activation shapes, and
// builds one tunable per conv layer.
// qnet, when present, must be structurally parallel (QuantizeForInference
// preserves module indices).
func collectTunables(fp32Net, qnet *nn.Sequential, input []int) ([]tunable, error) {
	var qmods []nn.Module
	if qnet != nil {
		qmods = qnet.Modules()
		if len(qmods) != len(fp32Net.Modules()) {
			return nil, fmt.Errorf("model: autotune: quantized net has %d modules, fp32 has %d",
				len(qmods), len(fp32Net.Modules()))
		}
	}
	var tun []tunable
	shape := []int{1, input[0], input[1], input[2]}
	mods := fp32Net.Modules()
	for i, m := range mods {
		if conv, ok := nn.Unwrap(m).(*nn.Conv2D); ok && conv.Algo == nn.ConvIm2Col {
			tc := tunable{
				idx:  i,
				conv: conv,
				in:   []int{shape[1], shape[2], shape[3]},
				name: fmt.Sprintf("conv%d_%dx%dx%d", len(tun), conv.OutC, conv.Geom.KH, conv.Geom.KW),
			}
			if i+1 < len(mods) {
				if _, isRelu := mods[i+1].(*nn.ReLU); isRelu {
					tc.relu = true
				}
			}
			if qmods != nil {
				if qc, ok := qmods[i].(*nn.QuantConv2D); ok {
					tc.qconv = qc
				}
			}
			tun = append(tun, tc)
		}
		shape = m.OutShape(shape)
	}
	return tun, nil
}
