package experiments

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"

	"drainnet/internal/model"
	"drainnet/internal/nn"
	"drainnet/internal/provenance"
	"drainnet/internal/tensor"
)

// KernelBenchRow is one (conv layer, kernel variant, batch) measurement
// of the fused conv+ReLU forward in isolation — the per-algorithm view
// behind the end-to-end tuned rows in BENCH_inference.json.
type KernelBenchRow struct {
	Layer    string  `json:"layer"`  // conv<i>_<outC>x<KH>x<KW>
	Shape    string  `json:"shape"`  // inC×H×W → outC×OH×OW
	Kernel   string  `json:"kernel"` // im2col, winograd, nchwc, direct
	Batch    int     `json:"batch"`
	NsPerOp  int64   `json:"ns_per_op"`
	NsPerImg float64 `json:"ns_per_image"`
	AllocsOp int64   `json:"allocs_per_op"`
	// Speedup is im2col ns/op over this variant's ns/op at the same
	// (layer, batch); 1.0 for the im2col rows themselves.
	Speedup float64 `json:"speedup_vs_im2col"`
}

// KernelsBenchRun is the microbenchmark at one GOMAXPROCS setting.
type KernelsBenchRun struct {
	GOMAXPROCS  int              `json:"gomaxprocs"`
	PoolWorkers int              `json:"pool_workers"`
	Rows        []KernelBenchRow `json:"rows"`
}

// KernelsBenchResult is written to BENCH_kernels.json: every conv shape
// of the inference-bench model timed under every eligible kernel
// variant, merged across GOMAXPROCS invocations like BENCH_inference.
type KernelsBenchResult struct {
	Model      string            `json:"model"`
	Provenance *provenance.Stamp `json:"provenance,omitempty"`
	Runs       []KernelsBenchRun `json:"runs"`
}

// KernelsBench microbenchmarks each conv layer of the inference-bench
// model (Original SPP-Net /4 @50px) under every eligible kernel variant
// at batch 1 and 16, and merges the current GOMAXPROCS run into outPath
// (defaults to BENCH_kernels.json when empty).
func KernelsBench(outPath string) (*KernelsBenchResult, error) {
	if outPath == "" {
		outPath = "BENCH_kernels.json"
	}
	cfg := model.OriginalSPPNet().Scaled(4).WithInput(4, 50)
	net, err := cfg.Build(rand.New(rand.NewSource(7)))
	if err != nil {
		return nil, err
	}
	run := KernelsBenchRun{GOMAXPROCS: runtime.GOMAXPROCS(0), PoolWorkers: tensor.PoolWorkers()}

	// Walk the net tracking activation shapes, so each conv is timed on
	// its real serving input size.
	shape := []int{1, cfg.InBands, cfg.InSize, cfg.InSize}
	mods := net.Modules()
	convIdx := 0
	for i, m := range mods {
		conv, ok := nn.Unwrap(m).(*nn.Conv2D)
		if !ok || conv.Algo != nn.ConvIm2Col {
			shape = m.OutShape(shape)
			continue
		}
		inC, h, w := shape[1], shape[2], shape[3]
		oh, ow := conv.Geom.OutSize(h, w)
		relu := false
		if i+1 < len(mods) {
			_, relu = mods[i+1].(*nn.ReLU)
		}
		layer := fmt.Sprintf("conv%d_%dx%dx%d", convIdx, conv.OutC, conv.Geom.KH, conv.Geom.KW)
		shapeStr := fmt.Sprintf("%dx%dx%d -> %dx%dx%d", inC, h, w, conv.OutC, oh, ow)

		im2col := map[int]int64{}
		for _, k := range nn.ConvKernels() {
			if !conv.KernelEligible(k) {
				continue
			}
			replica, err := nn.CloneShared(conv)
			if err != nil {
				return nil, err
			}
			rc := replica.(*nn.Conv2D)
			rc.SetKernels(k, k)
			for _, batch := range []int{1, 16} {
				x := tensor.New(batch, inC, h, w)
				rng := rand.New(rand.NewSource(int64(batch)))
				x.RandNormal(rng, 0, 1)
				a := tensor.NewArena()
				r := testing.Benchmark(func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						a.Reset()
						rc.InferFused(x, a, relu)
					}
				})
				if k == nn.KernelIm2Col {
					im2col[batch] = r.NsPerOp()
				}
				run.Rows = append(run.Rows, KernelBenchRow{
					Layer:    layer,
					Shape:    shapeStr,
					Kernel:   k.String(),
					Batch:    batch,
					NsPerOp:  r.NsPerOp(),
					NsPerImg: float64(r.NsPerOp()) / float64(batch),
					AllocsOp: r.AllocsPerOp(),
				})
			}
		}
		for j := range run.Rows {
			row := &run.Rows[j]
			if row.Layer == layer && row.Speedup == 0 {
				row.Speedup = float64(im2col[row.Batch]) / float64(row.NsPerOp)
			}
		}
		convIdx++
		shape = m.OutShape(shape)
	}

	res := &KernelsBenchResult{}
	loadBenchFile(outPath, res)
	res.Model = cfg.Name + " /4 @50px"
	res.Provenance = provenance.Collect()
	res.Runs = mergeKernelRunByProcs(res.Runs, run)
	if err := writeBenchFile(outPath, res); err != nil {
		return nil, err
	}
	return res, nil
}

// mergeKernelRunByProcs replaces the run with the same GOMAXPROCS and
// keeps runs sorted (same policy as BENCH_inference).
func mergeKernelRunByProcs(runs []KernelsBenchRun, run KernelsBenchRun) []KernelsBenchRun {
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

// Render writes the per-kernel table, one block per GOMAXPROCS run.
func (r *KernelsBenchResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Conv kernel variants — %s\n", r.Model)
	for _, run := range r.Runs {
		fmt.Fprintf(&b, "GOMAXPROCS=%d, pool workers=%d\n", run.GOMAXPROCS, run.PoolWorkers)
		fmt.Fprintf(&b, "%-16s %-22s %-9s %6s %14s %14s %10s %9s\n",
			"layer", "shape", "kernel", "batch", "ns/op", "ns/image", "allocs/op", "speedup")
		for _, row := range run.Rows {
			fmt.Fprintf(&b, "%-16s %-22s %-9s %6d %14d %14.0f %10d %8.2fx\n",
				row.Layer, row.Shape, row.Kernel, row.Batch, row.NsPerOp, row.NsPerImg, row.AllocsOp, row.Speedup)
		}
	}
	return b.String()
}
