package model

import (
	"fmt"

	"drainnet/internal/graph"
	"drainnet/internal/ios"
	"drainnet/internal/metrics"
	"drainnet/internal/nn"
	"drainnet/internal/tensor"
)

// BuildScaledGraph constructs the inference IR for the architecture at
// the config's width scale — the graph whose shapes match the network
// Build returns, as the real-execution scheduler requires. (BuildGraph
// keeps the unscaled paper architecture for the GPU-simulator
// experiments, which price Table 1 models at full width.)
func (c Config) BuildScaledGraph() (*graph.Graph, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	g := graph.NewGraph(c.Name, c.InBands, c.InSize, c.InSize)
	x := g.In
	for i, cv := range c.Convs {
		x = g.Conv(x, fmt.Sprintf("conv%d", i+1), c.filters(cv.Filters), cv.Kernel, cv.Stride)
		if cv.PoolSize > 0 {
			x = g.Pool(x, fmt.Sprintf("pool%d", i+1), cv.PoolSize, cv.PoolStride)
		}
	}
	var branches []*graph.Node
	for _, l := range c.SPPLevels {
		branches = append(branches, g.AdaptivePool(x, fmt.Sprintf("spp_l%d", l), l))
	}
	cat := g.Concat(branches, "spp_concat")
	h := g.FC(cat, "fc1", c.filters(c.FCWidth))
	g.FC(h, "head", c.HeadOut)
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// SchedulePlan is an IOS execution plan for serving one model: the
// scaled operator graph plus measured-cost-optimal schedules for the two
// batch sizes the batcher actually runs (single requests and full
// batches). Replicas compile the plan against their own network clone
// with CompileExecutors.
type SchedulePlan struct {
	Graph *graph.Graph
	// Batch1 serves single-clip batches; BatchN serves everything larger
	// (optimized at MaxBatch — intermediate sizes reuse it, since stage
	// structure is stable across nearby batch sizes).
	Batch1 *ios.Schedule
	BatchN *ios.Schedule
	// Cache holds the operator measurements behind the schedules; save it
	// so later starts skip re-measurement.
	Cache *ios.CostCache
}

// OptimizeSchedules benchmarks net's operators on this machine (through
// the measured cost oracle, reusing any prior measurements in cache —
// nil for none) and runs the IOS dynamic program at batch 1 and
// maxBatch. net must implement cfg at its width scale; it is prepared
// for inference (weights packed) as a side effect.
func OptimizeSchedules(cfg Config, net *nn.Sequential, maxBatch int, cache *ios.CostCache) (*SchedulePlan, error) {
	g, err := cfg.BuildScaledGraph()
	if err != nil {
		return nil, err
	}
	nn.PrepareInference(net)
	prog, err := nn.CompileGraph(net, g)
	if err != nil {
		return nil, err
	}
	oracle := ios.NewMeasuredOracle(prog, cache)
	s1, err := ios.Optimize(g, oracle, 1)
	if err != nil {
		return nil, err
	}
	sN := s1
	if maxBatch > 1 {
		if sN, err = ios.Optimize(g, oracle, maxBatch); err != nil {
			return nil, err
		}
	}
	if err := oracle.Err(); err != nil {
		return nil, fmt.Errorf("model: operator measurement failed: %w", err)
	}
	return &SchedulePlan{Graph: g, Batch1: s1, BatchN: sN, Cache: oracle.Cache()}, nil
}

// CompileExecutors binds the plan to one serving replica's network
// (which must implement the plan's config — typically a CloneShared of
// the network the plan was optimized on) and returns executors for the
// two planned batch regimes. When the plan has a single schedule, both
// returns are the same executor.
func (p *SchedulePlan) CompileExecutors(net *nn.Sequential) (exec1, execN *nn.ScheduleExecutor, err error) {
	prog, err := nn.CompileGraph(net, p.Graph)
	if err != nil {
		return nil, nil, err
	}
	if exec1, err = nn.NewScheduleExecutor(prog, p.Batch1); err != nil {
		return nil, nil, err
	}
	if p.BatchN == p.Batch1 {
		return exec1, exec1, nil
	}
	if execN, err = nn.NewScheduleExecutor(prog, p.BatchN); err != nil {
		return nil, nil, err
	}
	return exec1, execN, nil
}

// InferDetectScheduled is InferDetect running under an IOS schedule:
// the executor runs the network stage by stage (concurrent groups on
// the shared worker pool), and the head output decodes into dst exactly
// as InferDetect does. Output is bit-for-bit identical to InferDetect
// and, like it, allocation-free in steady state with a warm arena.
func InferDetectScheduled(exec *nn.ScheduleExecutor, x *tensor.Tensor, a *tensor.Arena, dst []metrics.Detection) []metrics.Detection {
	return decodeHeadInto(exec.Infer(x, a), dst)
}
