package ios

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"drainnet/internal/graph"
)

// OpRunner executes one operator of the concrete model so the measured
// oracle can time it. BindOp prepares node n at a batch size (synthetic
// inputs, kernel selection); each subsequent RunOp executes the bound
// operator once. The kernel autotuner's conv probe is the real
// implementation.
type OpRunner interface {
	BindOp(n *graph.Node, batch int) error
	RunOp()
}

// OpTagger is optionally implemented by an OpRunner whose operators run
// in more than one kernel or numeric precision. The tag joins the
// cost-cache key, so e.g. an int8-quantized conv is priced independently
// of its fp32 sibling with the same shapes. An empty tag means the
// default (fp32 im2col) kernel and leaves the key unchanged.
type OpTagger interface {
	OpTag(n *graph.Node) string
}

// MeasuredOracle prices operators from wall-clock timings of the
// concrete model's kernels on the local machine: each operator runs solo,
// owning the worker pool and keeping its intra-operator parallelism, as
// the serving executors run it. Timings are warmup + trimmed-mean and
// memoized in a CostCache keyed by operator signature, batch, kernel tag
// and GOMAXPROCS, so a process that loads a saved cache never
// re-measures.
type MeasuredOracle struct {
	Runner OpRunner
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
		Warmup:      2,
		Samples:     10,
		MinSampleNs: 2e5,
		cache:       cache,
	}
}

// Cache returns the oracle's cost cache (for saving after measuring).
func (o *MeasuredOracle) Cache() *CostCache { return o.cache }

// Err returns the first operator-binding error encountered, if any. A
// failed bind is priced pessimistically and recorded here; callers
// check Err after pricing.
func (o *MeasuredOracle) Err() error { return o.err }

// OpCost returns the trimmed-mean nanoseconds of one execution of node n
// at the batch size, measuring on a cache miss.
func (o *MeasuredOracle) OpCost(n *graph.Node, batch int) float64 {
	key := costKey(n, batch)
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
		// Pessimistic but finite, so a comparison still has an answer.
		return 1e12
	}
	c := TimeTrimmed(func(reps int) {
		for i := 0; i < reps; i++ {
			o.Runner.RunOp()
		}
	}, o.Warmup, o.Samples, o.MinSampleNs)
	o.cache.Put(key, c)
	return c
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

// costKey identifies one measurement: what the operator computes (kind,
// input/output shapes, work and weight volume — not its name, so
// identical ops share one entry), the batch size and GOMAXPROCS (the
// pool shape changes the timing).
func costKey(n *graph.Node, batch int) string {
	ins := ""
	for _, in := range n.Inputs {
		ins += fmt.Sprintf("%v", in.OutShape)
	}
	return fmt.Sprintf("p%d|b%d|%s|ins=%s|out=%v|f=%d|w=%d",
		runtime.GOMAXPROCS(0), batch, n.Kind, ins, n.OutShape,
		n.FLOPsPerSample, n.WeightBytes)
}
