package experiments

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"

	"drainnet/internal/metrics"
	"drainnet/internal/model"
	"drainnet/internal/nn"
	"drainnet/internal/provenance"
	"drainnet/internal/tensor"
	"drainnet/internal/terrain"
)

// InferenceBenchRow is one (path, precision, batch) measurement.
type InferenceBenchRow struct {
	Path       string  `json:"path"`      // "forward" (training graph) or "infer" (fast path)
	Precision  string  `json:"precision"` // "fp32", "int8" or "tuned" (autotuned kernel mix) — keys the row, so mixed-precision runs merge without clobbering
	Batch      int     `json:"batch"`     // clips per forward pass
	NsPerOp    int64   `json:"ns_per_op"`
	NsPerImg   float64 `json:"ns_per_image"`
	AllocsOp   int64   `json:"allocs_per_op"`
	BytesOp    int64   `json:"bytes_per_op"`
	Iterations int     `json:"iterations"`
}

// QuantGateInfo records the accuracy gate behind a benchmarked int8 run:
// the APs of both precisions on the synthetic held-out split and whether
// the drop cleared the epsilon.
type QuantGateInfo struct {
	FP32AP          float64 `json:"fp32_ap"`
	Int8AP          float64 `json:"int8_ap"`
	Drop            float64 `json:"ap_drop"`
	Epsilon         float64 `json:"epsilon"`
	Enabled         bool    `json:"enabled"`
	QuantizedLayers int     `json:"quantized_layers"`
	FallbackLayers  int     `json:"fallback_layers"`
}

// InferenceBenchRun is the benchmark at one GOMAXPROCS setting. The
// worker pool sizes itself once per process, so each run comes from a
// separate process invocation (see `make bench-inference`).
type InferenceBenchRun struct {
	GOMAXPROCS  int                 `json:"gomaxprocs"`
	PoolWorkers int                 `json:"pool_workers"`
	Rows        []InferenceBenchRow `json:"rows"`
	// SpeedupBatchN compare the fp32 fast path to the training graph;
	// Int8SpeedupBatchN compare int8 to the fp32 fast path.
	SpeedupBatch1      float64        `json:"speedup_batch1"`
	SpeedupBatch16     float64        `json:"speedup_batch16"`
	Int8SpeedupBatch1  float64        `json:"int8_speedup_batch1"`
	Int8SpeedupBatch16 float64        `json:"int8_speedup_batch16"`
	Int8Deterministic  bool           `json:"int8_deterministic"`
	Gate               *QuantGateInfo `json:"quant_gate,omitempty"`
	// TunedSpeedupBatchN compare the autotuned kernel mix (Winograd /
	// NCHWc / direct / int8, per layer — model.AutotuneKernels) to the
	// fp32 fast path; KernelMix names the per-layer choices it measured
	// fastest, and KernelDemotions counts accuracy-gate demotion steps.
	TunedSpeedupBatch1  float64 `json:"tuned_speedup_batch1"`
	TunedSpeedupBatch16 float64 `json:"tuned_speedup_batch16"`
	KernelMix           string  `json:"kernel_mix,omitempty"`
	KernelDemotions     int     `json:"kernel_demotions"`
	KernelAPDrop        float64 `json:"kernel_ap_drop"`
}

// InferenceBenchResult records the CPU inference fast-path benchmark:
// the training-graph Forward (the pre-fast-path serving path) against
// the packed/fused/arena Infer path at batch 1 and batch 16, plus the
// resulting speedups — one run per GOMAXPROCS setting, merged across
// invocations. It is written to BENCH_inference.json so later PRs have
// a perf trajectory to compare against.
type InferenceBenchResult struct {
	Model      string              `json:"model"`
	Provenance *provenance.Stamp   `json:"provenance,omitempty"`
	Runs       []InferenceBenchRun `json:"runs"`
}

// InferenceBench benchmarks both forward paths on a width-scaled
// Original SPP-Net and merges the result for the current GOMAXPROCS
// into outPath (defaults to BENCH_inference.json when empty).
func InferenceBench(outPath string) (*InferenceBenchResult, error) {
	if outPath == "" {
		outPath = "BENCH_inference.json"
	}
	cfg := model.OriginalSPPNet().Scaled(4).WithInput(4, 50)
	net, err := cfg.Build(rand.New(rand.NewSource(7)))
	if err != nil {
		return nil, err
	}
	nn.PrepareInference(net)

	// Quantize through the same accuracy gate serving uses, on a
	// synthetic held-out split matching the bench input shape, and record
	// the gate's verdict next to the timings.
	calib := synthDetectData(rand.New(rand.NewSource(9)), 64, cfg.InBands, cfg.InSize)
	dec, err := model.QuantizeGated(net, calib, model.QuantOptions{MaxAPDrop: 0.05})
	if err != nil {
		return nil, err
	}
	run := InferenceBenchRun{
		GOMAXPROCS:        runtime.GOMAXPROCS(0),
		PoolWorkers:       tensor.PoolWorkers(),
		Int8Deterministic: true,
		Gate: &QuantGateInfo{
			FP32AP:          dec.FP32AP,
			Int8AP:          dec.Int8AP,
			Drop:            dec.Drop,
			Epsilon:         dec.Epsilon,
			Enabled:         dec.Enabled,
			QuantizedLayers: dec.Report.Quantized,
			FallbackLayers:  dec.Report.Fallback,
		},
	}

	byKey := map[string]InferenceBenchRow{}
	for _, batch := range []int{1, 16} {
		x := tensor.New(batch, cfg.InBands, cfg.InSize, cfg.InSize)
		rng := rand.New(rand.NewSource(int64(batch)))
		for i := range x.Data() {
			x.Data()[i] = rng.Float32()
		}

		fwd := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				model.Detect(net, x)
			}
		})
		byKey[fmt.Sprintf("forward%d", batch)] = appendRow(&run, "forward", "fp32", batch, fwd)

		arena := tensor.NewArena()
		var dets []metrics.Detection
		inf := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				arena.Reset()
				dets = model.InferDetect(net, x, arena, dets)
			}
		})
		byKey[fmt.Sprintf("infer%d", batch)] = appendRow(&run, "infer", "fp32", batch, inf)

		// Determinism proof: two cold int8 passes must agree bit for bit.
		qa := tensor.NewArena()
		first := append([]metrics.Detection(nil), model.InferDetect(dec.Net, x, qa, nil)...)
		qa.Reset()
		for i, d := range model.InferDetect(dec.Net, x, qa, nil) {
			if d != first[i] {
				run.Int8Deterministic = false
				break
			}
		}

		var qdets []metrics.Detection
		q := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				qa.Reset()
				qdets = model.InferDetect(dec.Net, x, qa, qdets)
			}
		})
		byKey[fmt.Sprintf("int8-%d", batch)] = appendRow(&run, "infer", "int8", batch, q)
	}
	run.SpeedupBatch1 = float64(byKey["forward1"].NsPerOp) / float64(byKey["infer1"].NsPerOp)
	run.SpeedupBatch16 = float64(byKey["forward16"].NsPerOp) / float64(byKey["infer16"].NsPerOp)
	run.Int8SpeedupBatch1 = float64(byKey["infer1"].NsPerOp) / float64(byKey["int8-1"].NsPerOp)
	run.Int8SpeedupBatch16 = float64(byKey["infer16"].NsPerOp) / float64(byKey["int8-16"].NsPerOp)

	// Autotuned kernel mix: Winograd/NCHWc/direct per conv layer, int8 in
	// the competition when the quant gate passed, same gate epsilon.
	// Retargeting happens after the fp32 rows are measured, so they keep
	// pricing the plain im2col path.
	qnet := dec.Net
	if !dec.Enabled {
		qnet = nil
	}
	plan, err := model.AutotuneKernels(net, qnet, []int{cfg.InBands, cfg.InSize, cfg.InSize}, calib,
		model.KernelOptions{Batches: []int{1, 16}, MaxAPDrop: 0.05})
	if err != nil {
		return nil, err
	}
	run.KernelMix = plan.Mix()
	run.KernelDemotions = plan.Demotions
	run.KernelAPDrop = plan.Drop
	for _, batch := range []int{1, 16} {
		x := tensor.New(batch, cfg.InBands, cfg.InSize, cfg.InSize)
		rng := rand.New(rand.NewSource(int64(batch)))
		for i := range x.Data() {
			x.Data()[i] = rng.Float32()
		}
		ta := tensor.NewArena()
		var tdets []metrics.Detection
		tb := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ta.Reset()
				tdets = model.InferDetect(plan.Served, x, ta, tdets)
			}
		})
		byKey[fmt.Sprintf("tuned-%d", batch)] = appendRow(&run, "infer", "tuned", batch, tb)
	}
	run.TunedSpeedupBatch1 = float64(byKey["infer1"].NsPerOp) / float64(byKey["tuned-1"].NsPerOp)
	run.TunedSpeedupBatch16 = float64(byKey["infer16"].NsPerOp) / float64(byKey["tuned-16"].NsPerOp)

	res := &InferenceBenchResult{}
	loadBenchFile(outPath, res)
	res.Model = cfg.Name + " /4 @50px"
	res.Provenance = provenance.Collect()
	res.Runs = mergeRunByProcs(res.Runs, run)
	if err := writeBenchFile(outPath, res); err != nil {
		return nil, err
	}
	return res, nil
}

// loadBenchFile fills v from path when it exists and parses; a missing
// or incompatible file just means starting fresh.
func loadBenchFile(path string, v any) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return
	}
	_ = json.Unmarshal(buf, v)
}

func writeBenchFile(path string, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// mergeRunByProcs replaces the run with the same GOMAXPROCS (each
// invocation re-measures its own setting) and keeps runs sorted.
func mergeRunByProcs(runs []InferenceBenchRun, run InferenceBenchRun) []InferenceBenchRun {
	out := runs[:0]
	for _, r := range runs {
		if r.GOMAXPROCS != run.GOMAXPROCS {
			out = append(out, r)
		}
	}
	out = append(out, run)
	sort.Slice(out, func(i, j int) bool { return out[i].GOMAXPROCS < out[j].GOMAXPROCS })
	return out
}

func appendRow(run *InferenceBenchRun, path, precision string, batch int, r testing.BenchmarkResult) InferenceBenchRow {
	row := InferenceBenchRow{
		Path:       path,
		Precision:  precision,
		Batch:      batch,
		NsPerOp:    r.NsPerOp(),
		NsPerImg:   float64(r.NsPerOp()) / float64(batch),
		AllocsOp:   r.AllocsPerOp(),
		BytesOp:    r.AllocedBytesPerOp(),
		Iterations: r.N,
	}
	run.Rows = append(run.Rows, row)
	return row
}

// synthDetectData builds a synthetic held-out split for the bench gate:
// random clips, half positives with scattered boxes.
func synthDetectData(rng *rand.Rand, n, bands, size int) *terrain.Dataset {
	ds := &terrain.Dataset{ClipSize: size}
	for i := 0; i < n; i++ {
		img := tensor.New(bands, size, size)
		img.RandNormal(rng, 0, 1)
		s := terrain.Sample{Image: img}
		if i%2 == 0 {
			s.Target = nn.DetectionTarget{
				HasObject: true,
				CX:        0.2 + 0.6*rng.Float32(),
				CY:        0.2 + 0.6*rng.Float32(),
				W:         0.1 + 0.2*rng.Float32(),
				H:         0.1 + 0.2*rng.Float32(),
			}
		}
		ds.Samples = append(ds.Samples, s)
	}
	return ds
}

// Render writes the benchmark table, one block per GOMAXPROCS run.
func (r *InferenceBenchResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Inference fast path — %s\n", r.Model)
	for _, run := range r.Runs {
		fmt.Fprintf(&b, "GOMAXPROCS=%d, pool workers=%d, int8 deterministic=%t\n",
			run.GOMAXPROCS, run.PoolWorkers, run.Int8Deterministic)
		if g := run.Gate; g != nil {
			fmt.Fprintf(&b, "quant gate: fp32 AP=%.4f int8 AP=%.4f drop=%.4f epsilon=%.4f enabled=%t (%d quantized, %d fallback)\n",
				g.FP32AP, g.Int8AP, g.Drop, g.Epsilon, g.Enabled, g.QuantizedLayers, g.FallbackLayers)
		}
		fmt.Fprintf(&b, "%-8s %-5s %6s %14s %14s %12s %12s\n", "path", "prec", "batch", "ns/op", "ns/image", "allocs/op", "B/op")
		for _, row := range run.Rows {
			fmt.Fprintf(&b, "%-8s %-5s %6d %14d %14.0f %12d %12d\n",
				row.Path, row.Precision, row.Batch, row.NsPerOp, row.NsPerImg, row.AllocsOp, row.BytesOp)
		}
		fmt.Fprintf(&b, "fast-path speedup vs forward: %.2fx at batch 1, %.2fx at batch 16\n", run.SpeedupBatch1, run.SpeedupBatch16)
		fmt.Fprintf(&b, "int8 speedup vs fp32 fast path: %.2fx at batch 1, %.2fx at batch 16\n", run.Int8SpeedupBatch1, run.Int8SpeedupBatch16)
		if run.KernelMix != "" {
			fmt.Fprintf(&b, "tuned speedup vs fp32 fast path: %.2fx at batch 1, %.2fx at batch 16 (demotions=%d ap_drop=%.4f)\n",
				run.TunedSpeedupBatch1, run.TunedSpeedupBatch16, run.KernelDemotions, run.KernelAPDrop)
			fmt.Fprintf(&b, "kernel mix: %s\n", run.KernelMix)
		}
	}
	return b.String()
}
