package model

import (
	"fmt"

	"drainnet/internal/nn"
	"drainnet/internal/tensor"
	"drainnet/internal/terrain"
)

// This file gates int8 serving on accuracy: the paper's selection rule
// is "maximize efficiency e(n) subject to accuracy a(n) > A", and
// quantization is an efficiency move that must clear the same bar. QuantizeGated builds the int8 network, evaluates both
// precisions on a held-out calibration split, and only enables int8 when
// the one accuracy gate (gate.go) admits it.

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
}

// quantCalibBatches caps how many gate batches feed the min/max
// observers; the AP evaluation always uses the full split.
const quantCalibBatches = 8

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
// copy, and evaluates the accuracy gate against net itself. net is not
// modified.
func QuantizeGated(net *nn.Sequential, calib *terrain.Dataset, opts QuantOptions) (*QuantDecision, error) {
	return quantizeGated(net, newGate(net, calib, opts.MaxAPDrop))
}

// quantizeGated calibrates and quantizes net on g's split and checks the
// int8 copy against g.
func quantizeGated(net *nn.Sequential, g *gate) (*QuantDecision, error) {
	if g == nil {
		return nil, fmt.Errorf("model: quantization needs a non-empty calibration dataset")
	}
	var batches []*tensor.Tensor
	for lo := 0; lo < len(g.calib.Samples) && len(batches) < quantCalibBatches; lo += gateBatch {
		x, _ := g.calib.Batch(lo, min(lo+gateBatch, len(g.calib.Samples)))
		batches = append(batches, x)
	}
	cal := nn.Calibrate(net, batches)
	qnet, rep, err := nn.QuantizeForInference(net, cal)
	if err != nil {
		return nil, err
	}
	v := g.check(seqExec{qnet})
	return &QuantDecision{
		Net:     qnet,
		Report:  rep,
		FP32AP:  g.baseline,
		Int8AP:  v.AP,
		Drop:    v.Drop,
		Epsilon: g.eps,
		Enabled: rep.Quantized > 0 && v.Pass,
	}, nil
}
