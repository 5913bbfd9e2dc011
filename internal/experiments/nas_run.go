package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"drainnet/internal/model"
	"drainnet/internal/nas"
	"drainnet/internal/nn"
	"drainnet/internal/tensor"
)

// NASResult is a full Fig 5 pipeline run: multi-trial search with real
// training, accuracy filtering, and IOS-based efficiency selection.
type NASResult struct {
	Trials    []nas.Trial
	Selection *nas.Selection
}

// NASSearch runs the resource-aware NAS pipeline: `trials` random
// architectures trained under dc's protocol, filtered at `threshold`
// accuracy, then ranked by IOS-optimized latency at batch 1.
func NASSearch(dc DataConfig, trials int, threshold float64, seed int64) (*NASResult, error) {
	trainDS, testDS, err := BuildData(dc)
	if err != nil {
		return nil, err
	}
	space := nas.DefaultSpace()
	eval := nas.FunctionalEvaluator(func(cfg model.Config) (float64, error) {
		return TrainAndScore(cfg, dc, trainDS, testDS)
	})
	ts := nas.RandomSearch(space, eval, trials, seed)
	sel, err := nas.ResourceAware(ts, IOSMeasurer{Dev: Device()}, threshold, 1)
	if err != nil {
		// Keep the trials even when nothing qualified.
		return &NASResult{Trials: ts, Selection: sel}, err
	}
	return &NASResult{Trials: ts, Selection: sel}, nil
}

// Render writes the search log and the selection.
func (r *NASResult) Render() string {
	var b strings.Builder
	b.WriteString("Resource-aware NAS (Fig 5 pipeline)\n")
	fmt.Fprintf(&b, "%-28s %10s\n", "architecture", "AP")
	for _, t := range r.Trials {
		status := ""
		if t.Err != nil {
			status = "  (failed: " + t.Err.Error() + ")"
		}
		fmt.Fprintf(&b, "%-28s %9.2f%%%s\n", t.Config.Name, t.Accuracy*100, status)
	}
	if r.Selection != nil && r.Selection.Best() != nil {
		best := r.Selection.Best()
		fmt.Fprintf(&b, "selected: %s  (AP %.2f%%, IOS latency %.3f ms; a(n) > %.2f)\n",
			best.Config.Name, best.Accuracy*100, best.OptLatencyNs/1e6, r.Selection.Threshold)
	} else {
		b.WriteString("no candidate satisfied the accuracy constraint\n")
	}
	return b.String()
}

// ConvAlgoRow is one measured convolution implementation.
type ConvAlgoRow struct {
	Algo    string
	PerOpUs float64
}

// ConvAlgoResult is the DESIGN.md §5.3 ablation: im2col+GEMM vs direct
// convolution wall time in the CPU tensor engine.
type ConvAlgoResult struct {
	Input string
	Rows  []ConvAlgoRow
}

// AblationConvAlgo times both convolution algorithms on a reduced conv2
// workload (32 filters over 16×24×24) — small enough that the direct
// algorithm finishes in well under a second while the ~20× gap between
// the two implementations remains visible.
func AblationConvAlgo() *ConvAlgoResult {
	rng := rand.New(rand.NewSource(1))
	x := tensor.New(1, 16, 24, 24)
	x.RandNormal(rng, 0, 1)
	res := &ConvAlgoResult{Input: "1×16×24×24, conv 32@3×3"}
	for _, algo := range []struct {
		name string
		kind nn.ConvAlgo
	}{{"im2col+GEMM", nn.ConvIm2Col}, {"direct", nn.ConvDirect}} {
		conv := nn.NewConv2D(rng, 16, 32, 3, 1)
		conv.Algo = algo.kind
		// Warm up once, then time a few iterations.
		conv.Forward(x)
		const iters = 10
		start := time.Now()
		for i := 0; i < iters; i++ {
			conv.Forward(x)
		}
		res.Rows = append(res.Rows, ConvAlgoRow{
			Algo:    algo.name,
			PerOpUs: float64(time.Since(start).Microseconds()) / iters,
		})
	}
	return res
}

// Render writes the ablation table.
func (r *ConvAlgoResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation — convolution algorithm (%s)\n", r.Input)
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-14s %12.0f µs/op\n", row.Algo, row.PerOpUs)
	}
	return b.String()
}
