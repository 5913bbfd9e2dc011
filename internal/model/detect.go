package model

import (
	"math"

	"drainnet/internal/metrics"
	"drainnet/internal/nn"
	"drainnet/internal/tensor"
)

// Detect runs the network on a batch (N×C×H×W) and decodes the 5-way head
// output into detections: sigmoid(objectness logit) as the score and the
// raw regressed box, clamped to the unit square.
func Detect(net *nn.Sequential, x *tensor.Tensor) []metrics.Detection {
	return decodeHeadInto(net.Forward(x), nil)
}

// InferDetect is the serving fast path: the network runs in inference
// mode (no gradient caches, packed weights, fused epilogues) with all
// temporaries drawn from the caller's arena, and the decoded detections
// are appended to dst (reusing its backing array). The caller must Reset
// the arena between batches; with a warm arena and cap(dst) ≥ batch size
// the whole call performs zero heap allocations. Results are bit-for-bit
// identical to Detect.
func InferDetect(net *nn.Sequential, x *tensor.Tensor, a *tensor.Arena, dst []metrics.Detection) []metrics.Detection {
	return decodeHeadInto(net.Infer(x, a), dst)
}

// LayerName names a module for telemetry (nn.ModuleName).
func LayerName(m nn.Module) string { return nn.ModuleName(m) }

func decodeHeadInto(out *tensor.Tensor, dst []metrics.Detection) []metrics.Detection {
	n := out.Dim(0)
	if cap(dst) < n {
		dst = make([]metrics.Detection, n)
	}
	dets := dst[:n]
	// Index the head rows directly: At's variadic index list would heap-
	// allocate on every call, and this loop is inside the zero-alloc
	// serving guarantee.
	stride := out.Dim(1)
	data := out.Data()
	for i := 0; i < n; i++ {
		dets[i] = decodeRow(data[i*stride : i*stride+5])
	}
	return dets
}

// decodeRow decodes one 5-way head row into a detection. Shared between
// the wholesale decode and the dynamic path's scatter of tail survivors.
func decodeRow(row []float32) metrics.Detection {
	score := 1 / (1 + math.Exp(-float64(row[0])))
	return metrics.Detection{
		Score: score,
		Box: metrics.Box{
			CX: clamp01(float64(row[1])),
			CY: clamp01(float64(row[2])),
			W:  clamp01(float64(row[3])),
			H:  clamp01(float64(row[4])),
		},
	}
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// TargetsToGroundTruth converts supervision targets to the metrics form.
func TargetsToGroundTruth(targets []nn.DetectionTarget) []metrics.GroundTruth {
	gts := make([]metrics.GroundTruth, len(targets))
	for i, t := range targets {
		gts[i] = metrics.GroundTruth{
			HasObject: t.HasObject,
			Box: metrics.Box{
				CX: float64(t.CX), CY: float64(t.CY),
				W: float64(t.W), H: float64(t.H),
			},
		}
	}
	return gts
}
