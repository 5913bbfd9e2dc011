package experiments

import (
	"fmt"
	"strings"

	"drainnet/internal/gpu"
	"drainnet/internal/ios"
	"drainnet/internal/model"
)

// iosLatency is e(n) of the paper's Fig 5 selection: the architecture's
// IOS-optimized latency on the simulated GPU at one batch size, as
// Table 2 prices it.
func iosLatency(cfg model.Config, dev gpu.DeviceConfig, batch int) (float64, error) {
	g, err := cfg.BuildGraph()
	if err != nil {
		return 0, err
	}
	sched, err := ios.Optimize(g, ios.NewSimOracle(dev), batch)
	if err != nil {
		return 0, err
	}
	return ios.NewRuntime(dev).Measure(g, sched, batch).LatencyNs, nil
}

// Table2Row is one model's latency pair at batch 1.
type Table2Row struct {
	Model      string
	SeqMs      float64
	OptMs      float64
	PaperSeqMs float64
	PaperOptMs float64
}

// Table2Result reproduces Table 2: sequential vs IOS-optimized inference
// latency at batch size 1 for the four candidates.
type Table2Result struct {
	Rows []Table2Row
}

var paperTable2 = map[string][2]float64{
	"Original SPP-Net": {0.512, 0.268},
	"SPP-Net #1":       {0.419, 0.379},
	"SPP-Net #2":       {0.295, 0.236},
	"SPP-Net #3":       {0.562, 0.427},
}

// Table2 measures every candidate on the simulated GPU.
func Table2() (*Table2Result, error) {
	dev := Device()
	oracle := ios.NewSimOracle(dev)
	rt := ios.NewRuntime(dev)
	res := &Table2Result{}
	for _, cfg := range model.Candidates() {
		g, err := cfg.BuildGraph()
		if err != nil {
			return nil, err
		}
		seq := rt.Measure(g, ios.SequentialSchedule(g), 1)
		sched, err := ios.Optimize(g, oracle, 1)
		if err != nil {
			return nil, err
		}
		opt := rt.Measure(g, sched, 1)
		paper := paperTable2[cfg.Name]
		res.Rows = append(res.Rows, Table2Row{
			Model:      cfg.Name,
			SeqMs:      seq.LatencyNs / 1e6,
			OptMs:      opt.LatencyNs / 1e6,
			PaperSeqMs: paper[0],
			PaperOptMs: paper[1],
		})
	}
	return res, nil
}

// FastestOptimized returns the model with the lowest optimized latency.
func (r *Table2Result) FastestOptimized() Table2Row {
	best := r.Rows[0]
	for _, row := range r.Rows[1:] {
		if row.OptMs < best.OptMs {
			best = row
		}
	}
	return best
}

// Render writes the table in the paper's layout.
func (r *Table2Result) Render() string {
	var b strings.Builder
	b.WriteString("Table 2 — inference latency at batch 1 (measured vs paper, ms)\n")
	fmt.Fprintf(&b, "%-18s %12s %12s %14s %14s\n", "Model", "Sequential", "Optimized", "Paper seq", "Paper opt")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-18s %12.3f %12.3f %14.3f %14.3f\n",
			row.Model, row.SeqMs, row.OptMs, row.PaperSeqMs, row.PaperOptMs)
	}
	return b.String()
}

// Figure6Row is one batch size's efficiency pair.
type Figure6Row struct {
	Batch    int
	SeqUsImg float64 // sequential latency per image, µs
	OptUsImg float64 // optimized latency per image, µs
}

// Figure6Result reproduces Fig 6: inference efficiency (latency/batch)
// for SPP-Net #2 across batch sizes, sequential vs optimized schedules.
type Figure6Result struct {
	Model string
	Rows  []Figure6Row
}

// Figure6 sweeps the paper's batch sizes on SPP-Net #2.
func Figure6() (*Figure6Result, error) {
	dev := Device()
	oracle := ios.NewSimOracle(dev)
	rt := ios.NewRuntime(dev)
	cfg := model.SPPNet2()
	g, err := cfg.BuildGraph()
	if err != nil {
		return nil, err
	}
	res := &Figure6Result{Model: cfg.Name}
	for _, batch := range Batches {
		seq := rt.Measure(g, ios.SequentialSchedule(g), batch)
		sched, err := ios.Optimize(g, oracle, batch)
		if err != nil {
			return nil, err
		}
		opt := rt.Measure(g, sched, batch)
		res.Rows = append(res.Rows, Figure6Row{
			Batch:    batch,
			SeqUsImg: seq.EfficiencyNsPerImage / 1e3,
			OptUsImg: opt.EfficiencyNsPerImage / 1e3,
		})
	}
	return res, nil
}

// Render writes the series the figure plots.
func (r *Figure6Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6 — inference efficiency for %s (µs/image)\n", r.Model)
	fmt.Fprintf(&b, "%6s %14s %14s %8s\n", "batch", "sequential", "optimized", "gain")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%6d %14.1f %14.1f %7.2fx\n", row.Batch, row.SeqUsImg, row.OptUsImg, row.SeqUsImg/row.OptUsImg)
	}
	return b.String()
}

// AblationSchedulersRow compares the three schedulers at one batch size.
type AblationSchedulersRow struct {
	Batch    int
	SeqMs    float64
	GreedyMs float64
	IOSMs    float64
}

// AblationSchedulersResult is the DESIGN.md §5.1 ablation: sequential vs
// greedy-levels vs IOS DP on SPP-Net #2.
type AblationSchedulersResult struct {
	Rows []AblationSchedulersRow
}

// AblationSchedulers measures all three schedulers across batch sizes.
func AblationSchedulers() (*AblationSchedulersResult, error) {
	dev := Device()
	oracle := ios.NewSimOracle(dev)
	rt := ios.NewRuntime(dev)
	g, err := model.SPPNet2().BuildGraph()
	if err != nil {
		return nil, err
	}
	res := &AblationSchedulersResult{}
	for _, batch := range Batches {
		seq := rt.Measure(g, ios.SequentialSchedule(g), batch)
		greedy := rt.Measure(g, ios.GreedySchedule(g), batch)
		sched, err := ios.Optimize(g, oracle, batch)
		if err != nil {
			return nil, err
		}
		opt := rt.Measure(g, sched, batch)
		res.Rows = append(res.Rows, AblationSchedulersRow{
			Batch:    batch,
			SeqMs:    seq.LatencyNs / 1e6,
			GreedyMs: greedy.LatencyNs / 1e6,
			IOSMs:    opt.LatencyNs / 1e6,
		})
	}
	return res, nil
}

// Render writes the ablation table.
func (r *AblationSchedulersResult) Render() string {
	var b strings.Builder
	b.WriteString("Ablation — scheduler comparison on SPP-Net #2 (ms)\n")
	fmt.Fprintf(&b, "%6s %12s %12s %12s\n", "batch", "sequential", "greedy", "IOS DP")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%6d %12.3f %12.3f %12.3f\n", row.Batch, row.SeqMs, row.GreedyMs, row.IOSMs)
	}
	return b.String()
}

// AblationSPPRow is one pyramid configuration's IOS gain.
type AblationSPPRow struct {
	Levels   []int
	SeqMs    float64
	IOSMs    float64
	SpeedupX float64
}

// AblationSPPResult is the DESIGN.md §5.2 ablation: how the number of SPP
// branches changes the inter-operator parallelism opportunity.
type AblationSPPResult struct {
	Batch int
	Rows  []AblationSPPRow
}

// AblationSPPLevels sweeps pyramid depth at a fixed batch size.
func AblationSPPLevels(batch int) (*AblationSPPResult, error) {
	dev := Device()
	rt := ios.NewRuntime(dev)
	res := &AblationSPPResult{Batch: batch}
	for _, levels := range [][]int{{1}, {2, 1}, {4, 2, 1}, {5, 4, 2, 1}, {6, 5, 4, 2, 1}} {
		cfg := model.SPPNet2()
		cfg.SPPLevels = levels
		cfg.Name = fmt.Sprintf("spp-%d-levels", len(levels))
		g, err := cfg.BuildGraph()
		if err != nil {
			return nil, err
		}
		oracle := ios.NewSimOracle(dev)
		seq := rt.Measure(g, ios.SequentialSchedule(g), batch)
		sched, err := ios.Optimize(g, oracle, batch)
		if err != nil {
			return nil, err
		}
		opt := rt.Measure(g, sched, batch)
		res.Rows = append(res.Rows, AblationSPPRow{
			Levels:   levels,
			SeqMs:    seq.LatencyNs / 1e6,
			IOSMs:    opt.LatencyNs / 1e6,
			SpeedupX: seq.LatencyNs / opt.LatencyNs,
		})
	}
	return res, nil
}

// Render writes the ablation table.
func (r *AblationSPPResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation — SPP pyramid depth vs IOS gain (batch %d)\n", r.Batch)
	fmt.Fprintf(&b, "%-16s %12s %12s %9s\n", "levels", "seq ms", "IOS ms", "speedup")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-16s %12.3f %12.3f %8.2fx\n", fmt.Sprint(row.Levels), row.SeqMs, row.IOSMs, row.SpeedupX)
	}
	return b.String()
}
