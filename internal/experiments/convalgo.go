package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"drainnet/internal/nn"
	"drainnet/internal/tensor"
)

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
