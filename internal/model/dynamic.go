package model

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"

	"drainnet/internal/metrics"
	"drainnet/internal/nn"
	"drainnet/internal/tensor"
	"drainnet/internal/terrain"
)

// Dynamic inference: sweep traffic over a watershed raster is dominated
// by empty tiles, so a fixed-cost forward pass wastes most of its FLOPs
// on clips whose negativity is decidable early and cheaply. This file
// plans and executes the accuracy-gated dynamic path:
//
//   - an early-exit head (a linear probe on the globally pooled conv-
//     stack output) lets confident negatives skip the SPP+FC tail;
//   - spatial masking (nn.KernelMasked) skips im2col+GEMM on low-energy
//     output-row bands of every conv after the first;
//   - a difficulty router assigns easy clips to the int8 replica path
//     and hard clips to fp32 when precision "auto" is enabled.
//
// All three are efficiency moves under the paper's selection rule
// "maximize e(n) subject to a(n) > A": PlanDynamic scores the composed
// path on a held-out split and demotes mechanisms (masking first, then
// the exit) until the accuracy gate the quantization step answers to
// (gate.go) admits it. With every mechanism disabled the dynamic path
// degenerates to InferDetect and is bit-for-bit identical to it.

// ExitStats accumulates early-exit counts across every replica sharing
// a plan. Safe for concurrent use.
type ExitStats struct {
	exited atomic.Int64
	total  atomic.Int64
}

// Add records one batch's exit counts.
func (s *ExitStats) Add(exited, total int64) {
	if s == nil {
		return
	}
	s.exited.Add(exited)
	s.total.Add(total)
}

// Counts returns the cumulative (exited, total) sample counts.
func (s *ExitStats) Counts() (exited, total int64) {
	return s.exited.Load(), s.total.Load()
}

// Rate returns the cumulative fraction of samples that exited early.
func (s *ExitStats) Rate() float64 {
	e, t := s.Counts()
	if t == 0 {
		return 0
	}
	return float64(e) / float64(t)
}

// Reset clears the counters.
func (s *ExitStats) Reset() {
	s.exited.Store(0)
	s.total.Store(0)
}

// ExitHead is a linear probe on the globally average-pooled output of
// the conv stack (the tensor entering SPP). A sample exits early — its
// detection becomes a confident negative with the probe's sigmoid as
// score — when its logit is at or below Threshold. The threshold is
// calibrated by PlanDynamic so the composed AP drop stays within
// epsilon; a head with Threshold = -Inf never exits.
type ExitHead struct {
	// W has one weight per pre-SPP channel; B is the bias.
	W []float32
	B float32
	// Threshold is the exit decision boundary in logit space.
	Threshold float32
}

// Logit evaluates the probe on one sample's pre-SPP feature map laid
// out as c planes of hw values. Allocation-free.
func (h *ExitHead) Logit(sample []float32, c, hw int) float32 {
	s := float64(h.B)
	inv := 1 / float64(hw)
	for ci := 0; ci < c; ci++ {
		var acc float64
		for _, v := range sample[ci*hw : (ci+1)*hw] {
			acc += float64(v)
		}
		s += float64(h.W[ci]) * acc * inv
	}
	return float32(s)
}

// Router scores a raw input clip's difficulty from per-channel first-
// order statistics (mean and mean absolute deviation): a logistic probe
// trained on the calibration split. Large |logit| means the clip is
// easy — the probe is confident either way — and easy clips are served
// on the int8 path; clips inside the margin go to fp32.
type Router struct {
	// WMean and WMAD hold one weight per input channel for the channel
	// mean and mean-absolute-deviation features; B is the bias.
	WMean, WMAD []float32
	B           float32
	// Margin is the |logit| boundary between easy (int8) and hard
	// (fp32), the 25th percentile of calibration |logit|s.
	Margin float32
}

// Logit evaluates the router on sample i of a batch tensor. The two
// statistics stream per channel, so the call is allocation-free. Each
// channel's sum and absolute deviation are one float64 chain over its
// plane in ascending order; channelStats advances four channels' chains
// in one pass instead of one after another, which leaves every chain —
// and so the bits — as it was, and the features enter the logit in
// channel order as before.
func (r *Router) Logit(x *tensor.Tensor, i int) float32 {
	c, h, w := x.Dim(1), x.Dim(2), x.Dim(3)
	plane := h * w
	data := x.Data()[i*c*plane : (i+1)*c*plane]
	s := float64(r.B)
	inv := 1 / float64(plane)
	for c0 := 0; c0 < c; c0 += 4 {
		g := min(4, c-c0)
		mu, mad := channelStats(data[c0*plane:(c0+g)*plane], plane, inv)
		for k := 0; k < g; k++ {
			s += float64(r.WMean[c0+k])*mu[k] + float64(r.WMAD[c0+k])*mad[k]*inv
		}
	}
	return float32(s)
}

// channelStats returns the mean (sum·inv) and the summed absolute
// deviation from it of each of the one to four planes of p.
func channelStats(p []float32, plane int, inv float64) (mu, mad [4]float64) {
	if len(p) < 4*plane {
		for k := 0; k*plane < len(p); k++ {
			q := p[k*plane : (k+1)*plane]
			var sum float64
			for _, v := range q {
				sum += float64(v)
			}
			mu[k] = sum * inv
			for _, v := range q {
				mad[k] += math.Abs(float64(v) - mu[k])
			}
		}
		return mu, mad
	}
	p0, p1, p2, p3 := p[:plane], p[plane:2*plane], p[2*plane:3*plane], p[3*plane:4*plane]
	p1, p2, p3 = p1[:len(p0)], p2[:len(p0)], p3[:len(p0)] // one length: no bounds checks in the loops
	var s0, s1, s2, s3 float64
	for j, v := range p0 {
		s0 += float64(v)
		s1 += float64(p1[j])
		s2 += float64(p2[j])
		s3 += float64(p3[j])
	}
	m0, m1, m2, m3 := s0*inv, s1*inv, s2*inv, s3*inv
	var d0, d1, d2, d3 float64
	for j, v := range p0 {
		d0 += math.Abs(float64(v) - m0)
		d1 += math.Abs(float64(p1[j]) - m1)
		d2 += math.Abs(float64(p2[j]) - m2)
		d3 += math.Abs(float64(p3[j]) - m3)
	}
	return [4]float64{m0, m1, m2, m3}, [4]float64{d0, d1, d2, d3}
}

// Route assigns sample i of a batch to a serving precision.
func (r *Router) Route(x *tensor.Tensor, i int) Precision {
	l := r.Logit(x, i)
	if l < 0 {
		l = -l
	}
	if l >= r.Margin {
		return PrecisionInt8
	}
	return PrecisionFP32
}

// DynamicOptions configures dynamic-inference planning.
type DynamicOptions struct {
	// MaxAPDrop is the gate epsilon shared with quantization.
	MaxAPDrop float64
	// Int8 is the quantization decision for the deployment; the router
	// is only enabled when Int8 cleared its own accuracy gate.
	Int8 *QuantDecision
}

// exitEpochs is the gradient-descent epoch count of the exit probe and
// the router.
const exitEpochs = 200

// DynamicPlan is the outcome of accuracy-gated dynamic-inference
// planning: which mechanisms are enabled, the calibrated parameters,
// and the composed accuracy evidence. One plan is shared by every
// serving replica; Stats and ExitStats aggregate across them.
type DynamicPlan struct {
	// Exit is the calibrated early-exit probe (nil until planned).
	Exit        *ExitHead
	ExitEnabled bool
	// MaskEnabled reports whether spatial masking survived the gate;
	// MaskBand/MaskThreshold are the calibrated spec.
	MaskEnabled   bool
	MaskBand      int
	MaskThreshold float32
	// Router is the difficulty router for precision "auto" (nil when
	// disabled).
	Router        *Router
	RouterEnabled bool
	// SPPIndex is the module index of the SPP layer: the seam between
	// the conv-stack prefix and the SPP+FC tail.
	SPPIndex int
	// FP32AP is the full-path baseline AP on the calibration split;
	// DynamicAP is the composed dynamic-path AP; Drop their difference.
	FP32AP, DynamicAP, Drop float64
	// Epsilon echoes the gate threshold.
	Epsilon float64
	// Demotions counts gate-ladder rungs taken: 0 = full plan,
	// 1 = masking disabled, 2 = early exit disabled too.
	Demotions int
	// ExitRate and MaskRate are the rates measured on the calibration
	// split under the final (post-demotion) configuration.
	ExitRate, MaskRate float64
	// Stats and ExitStats receive serving-time counters from every
	// replica sharing the plan.
	Stats     *nn.MaskStats
	ExitStats *ExitStats
}

// Apply configures net for the plan: every conv after the first gets
// the calibrated mask spec and the masked kernel. Call on the serving
// network before replicas are cloned — cloneShared carries the mask
// spec and the shared stats. A plan without masking applies nothing.
func (p *DynamicPlan) Apply(net *nn.Sequential) {
	if p == nil || !p.MaskEnabled {
		return
	}
	applyMasks(net, p.MaskBand, p.MaskThreshold, p.Stats)
}

// applyMasks sets the mask spec and masked kernel on every conv after
// the first. The first conv stays exact: it reads raw terrain whose
// background is textured enough that masking it trades accuracy for
// little compute, and its output is what the downstream energy
// heuristics key on.
func applyMasks(net *nn.Sequential, band int, thresh float32, stats *nn.MaskStats) {
	first := true
	for _, m := range net.Modules() {
		c, ok := m.(*nn.Conv2D)
		if !ok {
			continue
		}
		if first {
			first = false
			continue
		}
		c.SetMask(nn.ConvMask{BandRows: band, Threshold: thresh, Stats: stats})
		c.SetKernels(nn.KernelMasked, nn.KernelMasked)
	}
}

// SPPIndex locates the SPP module in a detection network, the seam the
// dynamic path splits inference at.
func SPPIndex(net *nn.Sequential) (int, error) {
	for i, m := range net.Modules() {
		if _, ok := m.(*nn.SPP); ok {
			return i, nil
		}
	}
	return 0, fmt.Errorf("model: network has no SPP layer; dynamic inference needs the conv/tail seam")
}

// DynamicExec executes the dynamic path for one serving replica. It
// owns grow-only scratch (logits, survivor index, decode buffers), so
// steady-state InferDetect performs no heap allocation; one exec must
// not be shared across goroutines. The replica network may be fp32 or
// int8 — the exit probe reads whichever features the replica computes.
// A replica built by Plan.NewReplica with a stage hook reports its
// prefix blocks and survivor tail through the network's hook and the
// exit probe as an "ExitHead" stage at the SPP seam.
type DynamicExec struct {
	net    *nn.Sequential
	plan   *DynamicPlan
	nMods  int
	hook   nn.StageHook
	logits []float32
	keep   []int
}

// NewDynamicExec binds a plan to one replica network.
func NewDynamicExec(net *nn.Sequential, plan *DynamicPlan) *DynamicExec {
	return &DynamicExec{net: net, plan: plan, nMods: len(net.Modules())}
}

// InferDetect is the dynamic counterpart of model.InferDetect. With the
// early exit disabled it delegates wholesale (bit-for-bit identical to
// the static path; masking, if enabled, lives inside the conv kernels).
// With the exit enabled the conv-stack prefix runs for the whole batch,
// the probe scores every sample, exited samples become confident
// negatives, and only survivors — compacted into an arena sub-batch —
// pay for the SPP+FC tail. A batch with no exits runs the tail on the
// prefix output directly and stays bit-identical to the static path.
func (e *DynamicExec) InferDetect(x *tensor.Tensor, a *tensor.Arena, dst []metrics.Detection) []metrics.Detection {
	if e.plan == nil || !e.plan.ExitEnabled {
		return InferDetect(e.net, x, a, dst)
	}
	n := x.Dim(0)
	mid := e.net.InferRange(x, a, 0, e.plan.SPPIndex)
	c, hw := mid.Dim(1), mid.Dim(2)*mid.Dim(3)
	stride := c * hw
	data := mid.Data()

	if cap(e.logits) < n {
		e.logits = make([]float32, n)
	}
	if cap(e.keep) < n {
		e.keep = make([]int, 0, n)
	}
	logits := e.logits[:n]
	keep := e.keep[:0]
	h := e.plan.Exit
	var start time.Time
	if e.hook != nil {
		start = time.Now()
	}
	for i := 0; i < n; i++ {
		logits[i] = h.Logit(data[i*stride:(i+1)*stride], c, hw)
		if logits[i] > h.Threshold {
			keep = append(keep, i)
		}
	}
	if e.hook != nil {
		e.hook(e.plan.SPPIndex, "ExitHead", start, time.Since(start))
	}
	e.keep = keep
	e.plan.ExitStats.Add(int64(n-len(keep)), int64(n))

	if len(keep) == n {
		out := e.net.InferRange(mid, a, e.plan.SPPIndex, e.nMods)
		return decodeHeadInto(out, dst)
	}

	if cap(dst) < n {
		dst = make([]metrics.Detection, n)
	}
	dets := dst[:n]
	for i := 0; i < n; i++ {
		dets[i] = metrics.Detection{
			Score:  1 / (1 + math.Exp(-float64(logits[i]))),
			Exited: true,
		}
	}
	if len(keep) > 0 {
		sub := a.Get(len(keep), c, mid.Dim(2), mid.Dim(3))
		sd := sub.Data()
		for j, i := range keep {
			copy(sd[j*stride:(j+1)*stride], data[i*stride:(i+1)*stride])
		}
		out := e.net.InferRange(sub, a, e.plan.SPPIndex, e.nMods)
		ostride := out.Dim(1)
		od := out.Data()
		for j, i := range keep {
			dets[i] = decodeRow(od[j*ostride : j*ostride+5])
		}
	}
	return dets
}

// maskLadder is tried most aggressive first: the largest
// threshold that keeps the AP drop inside epsilon wins. The top rungs
// are deliberately far above typical background texture energy —
// whether they hold is exactly what the AP gate decides, and stopping
// the ladder early would leave gate headroom (and background bands)
// on the table.
var maskLadder = []float32{0.5, 0.3, 0.2, 0.12, 0.08, 0.04, 0.02, 0.01, 0.005}

// PlanDynamic calibrates the dynamic inference path on a held-out split
// and gates it against net as given. The ladder demotes masking first
// (it perturbs every downstream layer) and the early exit second; a
// fully demoted plan serves the static path. net is not modified — call
// plan.Apply on the serving network afterwards.
func PlanDynamic(net *nn.Sequential, calib *terrain.Dataset, opts DynamicOptions) (*DynamicPlan, error) {
	return planDynamic(net, newGate(net, calib, opts.MaxAPDrop), opts.Int8)
}

// planDynamic plans the dynamic path of net against g; quant is the
// deployment's quantization decision (nil when none was made).
func planDynamic(net *nn.Sequential, g *gate, quant *QuantDecision) (*DynamicPlan, error) {
	if g == nil {
		return nil, fmt.Errorf("model: dynamic planning needs a non-empty calibration dataset")
	}
	sppIdx, err := SPPIndex(net)
	if err != nil {
		return nil, err
	}
	calib := g.calib

	plan := &DynamicPlan{
		SPPIndex:  sppIdx,
		Epsilon:   g.eps,
		Stats:     &nn.MaskStats{},
		ExitStats: &ExitStats{},
		FP32AP:    g.baseline,
	}

	// Calibrate the mask energy threshold on a masked clone, most
	// aggressive first; masking alone must fit inside epsilon before the
	// composed gate even considers it.
	maskOK := false
	for _, thresh := range maskLadder {
		cl, err := maskedClone(net, thresh, plan.Stats)
		if err != nil {
			return nil, err
		}
		plan.Stats.Reset()
		if g.check(seqExec{cl}).Pass {
			maskOK = true
			plan.MaskThreshold = thresh
			break
		}
	}

	// Gate ladder on the composed path: full plan, then drop masking,
	// then drop the exit. The exit probe is trained and thresholded PER
	// RUNG, on the prefix features of the exact net configuration that
	// rung would serve — masking perturbs the pooled features, so a
	// probe calibrated on the unmasked prefix misfires on the masked one.
	for rung := 0; rung <= 2; rung++ {
		plan.MaskEnabled = maskOK && rung == 0
		plan.ExitEnabled = false
		if !maskOK && rung == 1 {
			continue // identical to rung 0 without masking to drop
		}
		plan.Demotions = rung
		evalNet := net
		if plan.MaskEnabled {
			cl, err := maskedClone(net, plan.MaskThreshold, plan.Stats)
			if err != nil {
				return nil, err
			}
			evalNet = cl
		}
		if rung < 2 {
			feats, labels := prefixFeatures(evalNet, sppIdx, calib)
			if head := trainExitHead(feats, labels); head != nil {
				logits := make([]float32, len(calib.Samples))
				for i, f := range feats {
					logits[i] = probeLogit(head, f)
				}
				if tau, ok := calibrateExitThreshold(logits, g.detectAll(seqExec{evalNet}), g); ok {
					head.Threshold = tau
					plan.Exit = head
					plan.ExitEnabled = true
				}
			}
		}
		plan.Stats.Reset()
		plan.ExitStats.Reset()
		v := g.check(NewDynamicExec(evalNet, plan))
		plan.DynamicAP, plan.Drop = v.AP, v.Drop
		if v.Pass || (!plan.MaskEnabled && !plan.ExitEnabled) {
			break
		}
	}
	plan.ExitRate = plan.ExitStats.Rate()
	plan.MaskRate = plan.Stats.Rate()
	plan.ExitStats.Reset()
	plan.Stats.Reset()

	// The router only matters when an int8 replica set exists, and that
	// path must have cleared its own accuracy gate.
	if quant != nil && quant.Enabled {
		plan.Router = trainRouter(calib)
		plan.RouterEnabled = plan.Router != nil
	}
	return plan, nil
}

// maskedClone builds an inference replica of net with the mask spec
// (the nn default band) applied to every conv after the first. Weights
// are shared; the clone packs its own masked-kernel state lazily.
func maskedClone(net *nn.Sequential, thresh float32, stats *nn.MaskStats) (*nn.Sequential, error) {
	m, err := nn.CloneShared(net)
	if err != nil {
		return nil, err
	}
	cl := m.(*nn.Sequential)
	applyMasks(cl, 0, thresh, stats)
	return cl, nil
}

// prefixFeatures runs the conv-stack prefix over the split and returns
// each sample's globally pooled feature vector and objectness label.
func prefixFeatures(net *nn.Sequential, sppIdx int, ds *terrain.Dataset) ([][]float32, []bool) {
	a := tensor.NewArena()
	feats := make([][]float32, 0, len(ds.Samples))
	labels := make([]bool, 0, len(ds.Samples))
	for lo := 0; lo < len(ds.Samples); lo += gateBatch {
		hi := min(lo+gateBatch, len(ds.Samples))
		x, targets := ds.Batch(lo, hi)
		a.Reset()
		mid := net.InferRange(x, a, 0, sppIdx)
		c, hw := mid.Dim(1), mid.Dim(2)*mid.Dim(3)
		data := mid.Data()
		for i := 0; i < hi-lo; i++ {
			f := make([]float32, c)
			sample := data[i*c*hw : (i+1)*c*hw]
			inv := 1 / float64(hw)
			for ci := 0; ci < c; ci++ {
				var acc float64
				for _, v := range sample[ci*hw : (ci+1)*hw] {
					acc += float64(v)
				}
				f[ci] = float32(acc * inv)
			}
			feats = append(feats, f)
			labels = append(labels, targets[i].HasObject)
		}
	}
	return feats, labels
}

// trainExitHead fits the logistic probe with full-batch gradient
// descent on standardized features, then folds the standardization into
// the weights. Returns nil when the split lacks both classes.
func trainExitHead(feats [][]float32, labels []bool) *ExitHead {
	w, b, ok := trainLogistic(feats, labels)
	if !ok {
		return nil
	}
	return &ExitHead{W: w, B: b, Threshold: float32(math.Inf(-1))}
}

// trainLogistic is the shared deterministic trainer: standardize each
// feature dimension, run fixed-epoch full-batch GD on the logistic
// loss, fold the standardization back into the returned weights.
func trainLogistic(feats [][]float32, labels []bool) (w []float32, b float32, ok bool) {
	n := len(feats)
	if n == 0 {
		return nil, 0, false
	}
	var pos int
	for _, l := range labels {
		if l {
			pos++
		}
	}
	if pos == 0 || pos == n {
		return nil, 0, false
	}
	d := len(feats[0])
	mu := make([]float64, d)
	sd := make([]float64, d)
	for _, f := range feats {
		for j, v := range f {
			mu[j] += float64(v)
		}
	}
	for j := range mu {
		mu[j] /= float64(n)
	}
	for _, f := range feats {
		for j, v := range f {
			dv := float64(v) - mu[j]
			sd[j] += dv * dv
		}
	}
	for j := range sd {
		sd[j] = math.Sqrt(sd[j]/float64(n)) + 1e-8
	}
	z := make([][]float64, n)
	for i, f := range feats {
		zi := make([]float64, d)
		for j, v := range f {
			zi[j] = (float64(v) - mu[j]) / sd[j]
		}
		z[i] = zi
	}
	wz := make([]float64, d)
	var bz float64
	grad := make([]float64, d)
	const lr = 0.5
	for e := 0; e < exitEpochs; e++ {
		for j := range grad {
			grad[j] = 0
		}
		var gb float64
		for i, zi := range z {
			s := bz
			for j, v := range zi {
				s += wz[j] * v
			}
			p := 1 / (1 + math.Exp(-s))
			y := 0.0
			if labels[i] {
				y = 1
			}
			g := p - y
			for j, v := range zi {
				grad[j] += g * v
			}
			gb += g
		}
		inv := lr / float64(n)
		for j := range wz {
			wz[j] -= grad[j] * inv
		}
		bz -= gb * inv
	}
	w = make([]float32, d)
	bf := bz
	for j := range wz {
		w[j] = float32(wz[j] / sd[j])
		bf -= wz[j] * mu[j] / sd[j]
	}
	return w, float32(bf), true
}

func probeLogit(h *ExitHead, f []float32) float32 {
	s := float64(h.B)
	for j, v := range f {
		s += float64(h.W[j]) * float64(v)
	}
	return float32(s)
}

// calibrateExitThreshold picks the most permissive exit threshold whose
// simulated composed AP passes g. The simulation swaps each would-exit
// sample's full-path detection for the exit detection the runtime would
// emit (probe sigmoid, empty box) and re-scores — no extra forward
// passes. Candidates are the descending quantiles of the calibration
// logit distribution.
func calibrateExitThreshold(logits []float32, fullDets []metrics.Detection, g *gate) (float32, bool) {
	sorted := append([]float32(nil), logits...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	dets := make([]metrics.Detection, len(fullDets))
	for q := 95; q >= 5; q -= 5 {
		tau := sorted[(len(sorted)-1)*q/100]
		copy(dets, fullDets)
		for i, l := range logits {
			if l <= tau {
				dets[i] = metrics.Detection{
					Score:  1 / (1 + math.Exp(-float64(l))),
					Exited: true,
				}
			}
		}
		if g.checkDetections(dets).Pass {
			return tau, true
		}
	}
	return 0, false
}

// trainRouter fits the difficulty probe on raw-input channel statistics
// and sets the margin to the 25th percentile of |logit| — three
// quarters of calibration traffic routes to the int8 path.
func trainRouter(ds *terrain.Dataset) *Router {
	feats := make([][]float32, 0, len(ds.Samples))
	labels := make([]bool, 0, len(ds.Samples))
	var channels int
	for lo := 0; lo < len(ds.Samples); lo += gateBatch {
		hi := min(lo+gateBatch, len(ds.Samples))
		x, targets := ds.Batch(lo, hi)
		c, h, w := x.Dim(1), x.Dim(2), x.Dim(3)
		channels = c
		plane := h * w
		data := x.Data()
		for i := 0; i < hi-lo; i++ {
			f := make([]float32, 2*c)
			sample := data[i*c*plane : (i+1)*c*plane]
			inv := 1 / float64(plane)
			for ci := 0; ci < c; ci++ {
				p := sample[ci*plane : (ci+1)*plane]
				var sum float64
				for _, v := range p {
					sum += float64(v)
				}
				mu := sum * inv
				var mad float64
				for _, v := range p {
					mad += math.Abs(float64(v) - mu)
				}
				f[ci] = float32(mu)
				f[c+ci] = float32(mad * inv)
			}
			feats = append(feats, f)
			labels = append(labels, targets[i].HasObject)
		}
	}
	w, b, ok := trainLogistic(feats, labels)
	if !ok {
		return nil
	}
	r := &Router{WMean: w[:channels], WMAD: w[channels:], B: b}
	abs := make([]float64, len(feats))
	for i, f := range feats {
		var s float64 = float64(b)
		for j, v := range f {
			s += float64(w[j]) * float64(v)
		}
		abs[i] = math.Abs(s)
	}
	sort.Float64s(abs)
	r.Margin = float32(abs[len(abs)/4])
	return r
}
