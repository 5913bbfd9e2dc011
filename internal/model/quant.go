package model

import (
	"fmt"

	"drainnet/internal/metrics"
	"drainnet/internal/nn"
	"drainnet/internal/tensor"
	"drainnet/internal/terrain"
)

// This file implements the accuracy gate for int8 serving: the paper's
// selection rule is "maximize efficiency e(n) subject to accuracy
// a(n) > A", and quantization is an efficiency move that must clear the
// same bar. QuantizeGated builds the int8 network, evaluates both
// precisions on a held-out calibration split, and only enables int8 when
// the AP drop stays within a configurable epsilon.

// Precision names the numeric precision of a serving network.
type Precision string

const (
	// PrecisionFP32 is the packed float32 fast path.
	PrecisionFP32 Precision = "fp32"
	// PrecisionInt8 is the quantized path (per-channel weights, affine
	// activations); serving with it requires the accuracy gate to pass.
	PrecisionInt8 Precision = "int8"
	// PrecisionAuto serves int8 when the gate passes and falls back to
	// fp32 otherwise.
	PrecisionAuto Precision = "auto"
)

// ParsePrecision validates a user-supplied precision mode.
func ParsePrecision(s string) (Precision, error) {
	switch p := Precision(s); p {
	case PrecisionFP32, PrecisionInt8, PrecisionAuto:
		return p, nil
	}
	return "", fmt.Errorf("model: unknown precision %q (want fp32, int8 or auto)", s)
}

// QuantOptions configures quantization and its accuracy gate.
type QuantOptions struct {
	// MaxAPDrop is the gate epsilon: the largest tolerated absolute AP
	// degradation (fp32 AP − int8 AP) on the calibration split.
	MaxAPDrop float64
	// IoU is the AP matching threshold (0 → 0.5, the paper's setting).
	IoU float64
	// CalibBatch is the batch size for calibration and evaluation
	// forwards (0 → 16).
	CalibBatch int
	// MaxCalibBatches caps how many batches feed the min/max observers;
	// the AP evaluation always uses the full split (0 → 8).
	MaxCalibBatches int
}

// QuantDecision is the outcome of an accuracy-gated quantization.
type QuantDecision struct {
	// Net is the quantized network (valid and runnable even when the
	// gate failed — benchmarks compare it regardless).
	Net    *nn.Sequential
	Report nn.QuantReport
	// FP32AP and Int8AP are the APs of the two precisions on the
	// calibration split; Drop = FP32AP − Int8AP.
	FP32AP, Int8AP, Drop float64
	// Epsilon echoes the gate threshold the decision was made against.
	Epsilon float64
	// Enabled reports whether int8 cleared the gate: at least one layer
	// actually quantized and Drop ≤ Epsilon.
	Enabled bool
}

// QuantizeGated calibrates net on the held-out split, builds the int8
// copy, and evaluates the accuracy gate. net itself is not modified.
func QuantizeGated(net *nn.Sequential, calib *terrain.Dataset, opts QuantOptions) (*QuantDecision, error) {
	if calib == nil || len(calib.Samples) == 0 {
		return nil, fmt.Errorf("model: quantization needs a non-empty calibration dataset")
	}
	if opts.IoU == 0 {
		opts.IoU = 0.5
	}
	if opts.CalibBatch <= 0 {
		opts.CalibBatch = 16
	}
	if opts.MaxCalibBatches <= 0 {
		opts.MaxCalibBatches = 8
	}

	var batches []*tensor.Tensor
	for lo := 0; lo < len(calib.Samples) && len(batches) < opts.MaxCalibBatches; lo += opts.CalibBatch {
		hi := lo + opts.CalibBatch
		if hi > len(calib.Samples) {
			hi = len(calib.Samples)
		}
		x, _ := calib.Batch(lo, hi)
		batches = append(batches, x)
	}
	cal := nn.Calibrate(net, batches)
	qnet, rep, err := nn.QuantizeForInference(net, cal)
	if err != nil {
		return nil, err
	}
	dec := &QuantDecision{
		Net:     qnet,
		Report:  rep,
		FP32AP:  evalAP(net, calib, opts.IoU, opts.CalibBatch),
		Int8AP:  evalAP(qnet, calib, opts.IoU, opts.CalibBatch),
		Epsilon: opts.MaxAPDrop,
	}
	dec.Drop = dec.FP32AP - dec.Int8AP
	dec.Enabled = rep.Quantized > 0 && dec.Drop <= opts.MaxAPDrop
	return dec, nil
}

// evalAP scores net on ds through the inference fast path (InferDetect
// is bit-identical to Detect, and it is the path serving actually runs).
func evalAP(net *nn.Sequential, ds *terrain.Dataset, iou float64, batch int) float64 {
	return evalAPExec(seqExec{net}, ds, iou, batch)
}

// evalAPExec scores any serving executor on ds.
func evalAPExec(exec Executor, ds *terrain.Dataset, iou float64, batch int) float64 {
	return metrics.Evaluate(detectAll(exec, ds, batch), calibGroundTruth(ds), iou).AP
}

// detectAll runs exec over ds in batches, one detection per sample.
func detectAll(exec Executor, ds *terrain.Dataset, batch int) []metrics.Detection {
	a := tensor.NewArena()
	dets := make([]metrics.Detection, 0, len(ds.Samples))
	scratch := make([]metrics.Detection, 0, batch)
	for lo := 0; lo < len(ds.Samples); lo += batch {
		x, _ := ds.Batch(lo, min(lo+batch, len(ds.Samples)))
		a.Reset()
		scratch = exec.InferDetect(x, a, scratch[:0])
		dets = append(dets, scratch...)
	}
	return dets
}

func calibGroundTruth(ds *terrain.Dataset) []metrics.GroundTruth {
	targets := make([]nn.DetectionTarget, len(ds.Samples))
	for i, s := range ds.Samples {
		targets[i] = s.Target
	}
	return TargetsToGroundTruth(targets)
}
