package model

import (
	"drainnet/internal/metrics"
	"drainnet/internal/nn"
	"drainnet/internal/tensor"
	"drainnet/internal/terrain"
)

// This file is the one accuracy gate. The paper selects a network by
// "maximize efficiency e(n) subject to accuracy a(n) > A"; every
// efficiency move Compile makes — int8, the autotuned kernel mix,
// spatial masking, the early exit — is admitted by the same predicate
// against the same baseline: the reference network's AP on the held-out
// calibration split, scored once, before any step retargets a kernel.

const (
	// gateIoU is the AP matching threshold (the paper's setting).
	gateIoU = 0.5
	// gateBatch is the batch size of every calibration and gate forward.
	gateBatch = 16
)

// gate holds the calibration split, its ground truth, the reference
// network's AP on it and the tolerated drop ε. A candidate passes when
// baseline − AP ≤ ε; ε is taken as given, so ε < 0 refuses every
// candidate and ε = 0 admits only a candidate no worse than the
// reference.
type gate struct {
	calib    *terrain.Dataset
	gts      []metrics.GroundTruth
	baseline float64
	eps      float64
}

// verdict is one candidate's standing against the gate.
type verdict struct {
	// AP is the candidate's AP on the split; Drop is baseline − AP.
	AP, Drop float64
	// Pass reports Drop ≤ ε.
	Pass bool
}

// newGate scores ref on calib as the baseline. It returns nil when calib
// is empty: there is then nothing to gate on, and each step decides
// what that means for it.
func newGate(ref *nn.Sequential, calib *terrain.Dataset, eps float64) *gate {
	if calib == nil || len(calib.Samples) == 0 {
		return nil
	}
	targets := make([]nn.DetectionTarget, len(calib.Samples))
	for i, s := range calib.Samples {
		targets[i] = s.Target
	}
	g := &gate{calib: calib, gts: TargetsToGroundTruth(targets), eps: eps}
	g.baseline = g.check(seqExec{ref}).AP
	return g
}

// check scores exec — any serving executor — on the split.
func (g *gate) check(exec Executor) verdict {
	return g.checkDetections(g.detectAll(exec))
}

// checkDetections scores one detection per calibration sample, in split
// order (the exit-threshold search edits detections without a forward).
func (g *gate) checkDetections(dets []metrics.Detection) verdict {
	ap := metrics.Evaluate(dets, g.gts, gateIoU).AP
	drop := g.baseline - ap
	return verdict{AP: ap, Drop: drop, Pass: drop <= g.eps}
}

// detectAll runs exec over the split in gate batches, one detection per
// sample.
func (g *gate) detectAll(exec Executor) []metrics.Detection {
	ds := g.calib
	a := tensor.NewArena()
	dets := make([]metrics.Detection, 0, len(ds.Samples))
	scratch := make([]metrics.Detection, 0, gateBatch)
	for lo := 0; lo < len(ds.Samples); lo += gateBatch {
		x, _ := ds.Batch(lo, min(lo+gateBatch, len(ds.Samples)))
		a.Reset()
		scratch = exec.InferDetect(x, a, scratch[:0])
		dets = append(dets, scratch...)
	}
	return dets
}
