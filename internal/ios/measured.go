package ios

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"drainnet/internal/graph"
	"drainnet/internal/tensor"
)

// OpRunner executes one operator of the concrete model so the measured
// oracle can time it. BindOp prepares node n at a batch size (synthetic
// inputs, kernel selection); each subsequent RunOp executes the bound
// operator once. nn.GraphProgram is the real implementation.
type OpRunner interface {
	BindOp(n *graph.Node, batch int) error
	RunOp()
}

// OpTagger is optionally implemented by an OpRunner whose operators run
// in more than one numeric precision. The tag joins the cost-cache key,
// so e.g. an int8-quantized conv is priced independently of its fp32
// sibling with the same shapes. An empty tag means the default (fp32)
// precision and leaves the key unchanged — warm caches recorded before
// tagging existed stay valid.
type OpTagger interface {
	OpTag(n *graph.Node) string
}

// MeasuredOracle prices stages from wall-clock timings of the concrete
// model's kernels on the local machine, replacing the simulated GPU with
// the hardware that will actually serve. Each operator is benchmarked in
// the two regimes the ScheduleExecutor runs it in:
//
//   - solo: the operator owns the worker pool (single-group stage) and
//     keeps its intra-operator parallelism;
//   - inline: the operator runs inside one group of a concurrent stage,
//     where nested parallel regions degrade to serial execution
//     (reproduced via tensor.RunInline).
//
// A single-group stage then costs the sum of its solo times; a
// multi-group stage costs the LPT makespan of its groups' inline chain
// times over the available lanes, plus a fixed fork/join overhead.
// Timings are warmup + trimmed-mean and memoized in a CostCache keyed by
// operator signature, batch, regime and GOMAXPROCS, so a serve process
// that loads a saved cache never re-measures.
type MeasuredOracle struct {
	Runner OpRunner
	// Workers is the number of concurrent group lanes a stage can use:
	// the pool workers plus the calling goroutine.
	Workers int
	// StageSyncNs is the fixed fork/join overhead charged per multi-group
	// stage (the ParallelRange submit + completion handshake).
	StageSyncNs float64
	// Warmup and Samples control each measurement: Warmup discarded runs,
	// then Samples timed runs whose trimmed mean is the cost.
	Warmup  int
	Samples int
	// MinSampleNs stretches one timed sample to at least this long by
	// repeating the operator, so sub-microsecond kernels are measured
	// above clock granularity.
	MinSampleNs float64

	cache *CostCache
	err   error
}

// NewMeasuredOracle builds an oracle over r, memoizing into cache (a
// fresh cache is created when nil).
func NewMeasuredOracle(r OpRunner, cache *CostCache) *MeasuredOracle {
	if cache == nil {
		cache = NewCostCache()
	}
	return &MeasuredOracle{
		Runner:      r,
		Workers:     tensor.PoolWorkers() + 1,
		StageSyncNs: 5e3,
		Warmup:      2,
		Samples:     10,
		MinSampleNs: 2e5,
		cache:       cache,
	}
}

// Cache returns the oracle's cost cache (for saving after optimization).
func (o *MeasuredOracle) Cache() *CostCache { return o.cache }

// Err returns the first operator-binding error encountered, if any.
// StageCost cannot report errors through the CostOracle interface, so a
// failed bind is priced pessimistically and recorded here; callers should
// check Err after Optimize.
func (o *MeasuredOracle) Err() error { return o.err }

// StageCost implements the shared gpu.CostOracle interface.
func (o *MeasuredOracle) StageCost(groups []Group, batch int) float64 {
	if len(groups) == 1 {
		total := 0.0
		for _, n := range groups[0] {
			total += o.opCost(n, batch, false)
		}
		return total
	}
	chains := make([]float64, len(groups))
	for gi, g := range groups {
		for _, n := range g {
			chains[gi] += o.opCost(n, batch, true)
		}
	}
	return lptMakespan(chains, o.Workers) + o.StageSyncNs
}

// opCost returns the trimmed-mean nanoseconds of one execution of node n
// at the batch size, in the inline or solo regime, measuring on a cache
// miss.
func (o *MeasuredOracle) opCost(n *graph.Node, batch int, inline bool) float64 {
	key := costKey(n, batch, inline)
	if t, ok := o.Runner.(OpTagger); ok {
		if tag := t.OpTag(n); tag != "" {
			key += "|prec=" + tag
		}
	}
	if c, ok := o.cache.Get(key); ok {
		return c
	}
	if err := o.Runner.BindOp(n, batch); err != nil {
		if o.err == nil {
			o.err = err
		}
		// Pessimistic but finite, so the DP still terminates.
		return 1e12
	}
	c := o.measure(inline)
	o.cache.Put(key, c)
	return c
}

// measure times the bound operator under the oracle's sampling knobs.
func (o *MeasuredOracle) measure(inline bool) float64 {
	loop := func(reps int) {
		for i := 0; i < reps; i++ {
			o.Runner.RunOp()
		}
	}
	if inline {
		plain := loop
		loop = func(reps int) { tensor.RunInline(func() { plain(reps) }) }
	}
	return TimeTrimmed(loop, o.Warmup, o.Samples, o.MinSampleNs)
}

// TimeTrimmed returns the steady-state wall-clock cost in ns of one
// iteration of loop (which runs its body reps times): warmup discarded
// runs, then samples timed runs — each stretched above clock granularity
// to at least minSampleNs by repetition — whose trimmed mean (top and
// bottom quarter dropped, rejecting scheduler noise in both tails) is
// the cost.
func TimeTrimmed(loop func(reps int), warmup, samples int, minSampleNs float64) float64 {
	run := func(reps int) float64 {
		start := time.Now()
		loop(reps)
		return float64(time.Since(start)) / float64(reps)
	}
	for i := 0; i < warmup; i++ {
		run(1)
	}
	reps := 1
	if probe := run(1); probe < minSampleNs {
		if probe <= 0 {
			probe = 1
		}
		reps = int(minSampleNs/probe) + 1
	}
	s := make([]float64, samples)
	for i := range s {
		s[i] = run(reps)
	}
	sort.Float64s(s)
	trim := len(s) / 4
	kept := s[trim : len(s)-trim]
	total := 0.0
	for _, v := range kept {
		total += v
	}
	return total / float64(len(kept))
}

// lptMakespan schedules the given chain durations onto lanes by longest
// processing time first — the same greedy order a work-stealing pool
// approximates — and returns the finishing time of the busiest lane.
func lptMakespan(chains []float64, lanes int) float64 {
	if lanes < 1 {
		lanes = 1
	}
	if lanes > len(chains) {
		lanes = len(chains)
	}
	sorted := append([]float64(nil), chains...)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	loads := make([]float64, lanes)
	for _, d := range sorted {
		min := 0
		for i := 1; i < lanes; i++ {
			if loads[i] < loads[min] {
				min = i
			}
		}
		loads[min] += d
	}
	max := loads[0]
	for _, l := range loads[1:] {
		if l > max {
			max = l
		}
	}
	return max
}

// costKey identifies one measurement: what the operator computes (kind,
// input/output shapes, work and weight volume — not its name, so
// identical ops share one entry), the batch size, the execution regime,
// and GOMAXPROCS (pool shape changes both regimes' timings).
func costKey(n *graph.Node, batch int, inline bool) string {
	regime := "solo"
	if inline {
		regime = "inline"
	}
	ins := ""
	for _, in := range n.Inputs {
		ins += fmt.Sprintf("%v", in.OutShape)
	}
	return fmt.Sprintf("p%d|b%d|%s|%s|ins=%s|out=%v|f=%d|w=%d",
		runtime.GOMAXPROCS(0), batch, regime, n.Kind, ins, n.OutShape,
		n.FLOPsPerSample, n.WeightBytes)
}
