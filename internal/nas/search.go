package nas

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"
)

// CandidateEvaluator scores one joint candidate end to end. The
// MeasuredEvaluator is the hardware-in-the-loop implementation; tests
// substitute cheap stubs.
type CandidateEvaluator interface {
	EvaluateCandidate(c CandidateConfig) TrialResult
}

// CandidateEvaluatorFunc adapts a plain function to CandidateEvaluator.
type CandidateEvaluatorFunc func(c CandidateConfig) TrialResult

// EvaluateCandidate implements CandidateEvaluator.
func (f CandidateEvaluatorFunc) EvaluateCandidate(c CandidateConfig) TrialResult { return f(c) }

// TrialResult is one scored candidate of the measured search — the row
// the ranked trial table renders and the winner's plan.json records.
type TrialResult struct {
	Candidate CandidateConfig `json:"candidate"`
	// Key identifies the candidate (arch|prec|kern); trials are deduped
	// on it.
	Key string `json:"key"`
	// Order is the position in the evaluation history.
	Order int `json:"order"`
	// ProxyAcc is the prefilter's estimate (0 when no proxy ran).
	ProxyAcc float64 `json:"proxy_acc,omitempty"`
	// Prefiltered marks candidates the proxy rejected before training.
	Prefiltered bool `json:"prefiltered,omitempty"`
	// Accuracy is the trained model's held-out a(n).
	Accuracy float64 `json:"accuracy"`
	// Qualified marks candidates satisfying a(n) > A; only these carry
	// latencies and are eligible to win.
	Qualified bool `json:"qualified"`
	// GateFallback marks int8 candidates whose accuracy gate failed and
	// were measured as their fp32 twin.
	GateFallback bool `json:"gate_fallback,omitempty"`
	// Demotions counts autotuner gate-ladder demotions (tuned mode only).
	Demotions int `json:"demotions,omitempty"`
	// LatencyB1Ns and LatencyBNNs are the measured executor latencies at
	// batch 1 and the evaluator's MaxBatch.
	LatencyB1Ns float64 `json:"latency_b1_ns,omitempty"`
	LatencyBNNs float64 `json:"latency_bn_ns,omitempty"`
	// CacheHit marks candidates answered from the candidate-level cache
	// without touching the bench.
	CacheHit bool `json:"cache_hit,omitempty"`
	// WallMs is this evaluation's wall-clock cost.
	WallMs float64 `json:"wall_ms"`
	// Err records an evaluation failure (candidate is disqualified).
	Err string `json:"err,omitempty"`
}

// SearchOptions configures a measured search run.
type SearchOptions struct {
	// Strategy is "random" (paper §4.2, default), "grid" (exhaustive
	// joint space), or "evolution" (batched aging evolution).
	Strategy string `json:"strategy"`
	// Trials is the number of distinct candidates for random search; grid
	// ignores it; evolution derives Population+Cycles from it when the
	// Evolution config is zero.
	Trials int `json:"trials"`
	// Seed drives sampling and mutation; a fixed seed plus a warm cache
	// reproduces the exact ranking.
	Seed int64 `json:"seed"`
	// Parallel is the number of worker goroutines evaluating candidates
	// concurrently (default 1). Random and grid evaluate the same
	// candidate set at any parallelism; evolution's trajectory is
	// deterministic for a fixed (Seed, Parallel) pair because proposals
	// are batched by Parallel.
	Parallel int `json:"parallel"`
	// Evolution configures the evolution strategy (its Seed is ignored in
	// favor of SearchOptions.Seed).
	Evolution EvolutionConfig `json:"evolution,omitzero"`
}

// SearchResult is the outcome of one measured search.
type SearchResult struct {
	Options SearchOptions `json:"options"`
	// Trials is the evaluation history in deterministic order.
	Trials []TrialResult `json:"trials"`
	// WallMs is the whole search's wall-clock time.
	WallMs float64 `json:"wall_ms"`
	// CacheHits, Prefiltered and Qualified summarize the history.
	CacheHits   int `json:"cache_hits"`
	Prefiltered int `json:"prefiltered"`
	Qualified   int `json:"qualified"`
}

// Ranked returns the qualified trials ordered by measured large-batch
// latency (then batch-1 latency, then key — a total, reproducible
// order). The winner is the head of this ranking: the fastest measured
// candidate satisfying a(n) > A, the paper's arg max e(n).
func (r *SearchResult) Ranked() []TrialResult {
	var q []TrialResult
	for _, t := range r.Trials {
		if t.Qualified && t.Err == "" {
			q = append(q, t)
		}
	}
	sort.Slice(q, func(i, j int) bool {
		if q[i].LatencyBNNs != q[j].LatencyBNNs {
			return q[i].LatencyBNNs < q[j].LatencyBNNs
		}
		if q[i].LatencyB1Ns != q[j].LatencyB1Ns {
			return q[i].LatencyB1Ns < q[j].LatencyB1Ns
		}
		return q[i].Key < q[j].Key
	})
	return q
}

// Winner returns the best qualified trial, or nil when nothing
// satisfied the accuracy constraint.
func (r *SearchResult) Winner() *TrialResult {
	q := r.Ranked()
	if len(q) == 0 {
		return nil
	}
	return &q[0]
}

// Render formats the ranked trial table.
func (r *SearchResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "measured NAS: %d trials (%d qualified, %d prefiltered, %d cache hits), %.0f ms wall, parallel=%d\n",
		len(r.Trials), r.Qualified, r.Prefiltered, r.CacheHits, r.WallMs, r.Options.Parallel)
	fmt.Fprintf(&b, "%-4s %-36s %-9s %-9s %-12s %-12s %s\n",
		"rank", "candidate", "acc", "proxy", "b1 ms", "bN ms", "notes")
	for i, t := range r.Ranked() {
		notes := ""
		if t.CacheHit {
			notes += "cache "
		}
		if t.GateFallback {
			notes += "gate-fallback "
		}
		if t.Demotions > 0 {
			notes += fmt.Sprintf("demote×%d ", t.Demotions)
		}
		fmt.Fprintf(&b, "%-4d %-36s %-9.4f %-9.4f %-12.4f %-12.4f %s\n",
			i+1, t.Key, t.Accuracy, t.ProxyAcc, t.LatencyB1Ns/1e6, t.LatencyBNNs/1e6, strings.TrimSpace(notes))
	}
	rejected := 0
	for _, t := range r.Trials {
		if !t.Qualified {
			rejected++
		}
	}
	if rejected > 0 {
		fmt.Fprintf(&b, "rejected (a(n) ≤ A, prefiltered, or errored): %d\n", rejected)
	}
	return b.String()
}

// Search runs the measured NAS: it proposes joint candidates with the
// chosen strategy, fans evaluations out over Parallel workers sharing
// one evaluator (and therefore one cost cache), dedupes revisited
// candidates so nothing is scored twice, and returns the full history.
func Search(space Space, eval CandidateEvaluator, opts SearchOptions) (*SearchResult, error) {
	if opts.Parallel < 1 {
		opts.Parallel = 1
	}
	if opts.Trials < 1 {
		opts.Trials = 1
	}
	if opts.Strategy == "" {
		opts.Strategy = "random"
	}
	start := time.Now()
	var trials []TrialResult
	var err error
	switch opts.Strategy {
	case "random":
		trials = evalOrdered(randomCandidates(space, opts), eval, opts.Parallel)
	case "grid":
		trials = evalOrdered(space.AllCandidates(), eval, opts.Parallel)
	case "evolution":
		trials = evolutionMeasured(space, eval, opts)
	default:
		err = fmt.Errorf("nas: unknown strategy %q (want random, grid or evolution)", opts.Strategy)
	}
	if err != nil {
		return nil, err
	}
	res := &SearchResult{Options: opts, Trials: trials, WallMs: float64(time.Since(start)) / 1e6}
	for _, t := range trials {
		if t.CacheHit {
			res.CacheHits++
		}
		if t.Prefiltered {
			res.Prefiltered++
		}
		if t.Qualified {
			res.Qualified++
		}
	}
	return res, nil
}

// randomCandidates draws opts.Trials distinct candidates (the joint
// space may be smaller than the budget, so sampling stops after a
// bounded number of repeat draws). The candidate set depends only on
// (space, Seed, Trials) — never on Parallel — so sequential and parallel
// runs of the same search evaluate identical candidates.
func randomCandidates(space Space, opts SearchOptions) []CandidateConfig {
	rng := rand.New(rand.NewSource(opts.Seed))
	seen := make(map[string]bool, opts.Trials)
	var out []CandidateConfig
	misses := 0
	for len(out) < opts.Trials && misses < 20*opts.Trials {
		c := space.SampleCandidate(rng)
		if seen[c.Key()] {
			misses++
			continue
		}
		seen[c.Key()] = true
		out = append(out, c)
	}
	return out
}

// evalOrdered evaluates a fixed candidate list over workers goroutines,
// returning results in the list's order regardless of completion order.
func evalOrdered(cands []CandidateConfig, eval CandidateEvaluator, workers int) []TrialResult {
	results := make([]TrialResult, len(cands))
	if workers > len(cands) {
		workers = len(cands)
	}
	if workers < 1 {
		workers = 1
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				results[i] = eval.EvaluateCandidate(cands[i])
			}
		}()
	}
	for i := range cands {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	for i := range results {
		results[i].Order = i
	}
	return results
}

// evolutionMeasured is regularized (aging) evolution generalized to the
// joint space and to batched-parallel evaluation: each generation
// proposes up to Parallel children sequentially from the deterministic
// rng (so the trajectory is reproducible for a fixed Seed and Parallel),
// evaluates the unseen ones concurrently, and ages out as many elders as
// children were admitted. Revisited candidates reuse their recorded
// trial — a candidate is never evaluated twice.
func evolutionMeasured(space Space, eval CandidateEvaluator, opts SearchOptions) []TrialResult {
	ecfg := opts.Evolution
	if ecfg.Population == 0 && ecfg.Cycles == 0 {
		// Derive a budget split from Trials: a third seeds the
		// population, the rest evolves.
		ecfg.Population = opts.Trials / 3
		ecfg.Cycles = opts.Trials - ecfg.Population
	}
	if ecfg.Population < 2 {
		ecfg.Population = 2
	}
	if ecfg.SampleSize < 1 {
		ecfg.SampleSize = 3
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	seen := make(map[string]TrialResult)
	var history []TrialResult

	// evalBatch scores a proposal batch: unseen candidates fan out over
	// the workers (each unique candidate once), results land in history
	// in proposal order, and every proposal resolves to its trial.
	evalBatch := func(batch []CandidateConfig) []TrialResult {
		var fresh []CandidateConfig
		inBatch := make(map[string]bool)
		for _, c := range batch {
			if _, ok := seen[c.Key()]; !ok && !inBatch[c.Key()] {
				inBatch[c.Key()] = true
				fresh = append(fresh, c)
			}
		}
		for _, t := range evalOrdered(fresh, eval, opts.Parallel) {
			t.Order = len(history)
			seen[t.Key] = t
			history = append(history, t)
		}
		out := make([]TrialResult, len(batch))
		for i, c := range batch {
			out[i] = seen[c.Key()]
		}
		return out
	}

	fitness := func(t TrialResult) float64 {
		// Qualified candidates compete on measured speed (lower latency =
		// fitter); unqualified ones compete on accuracy below everything
		// qualified, steering the population toward the constraint.
		if t.Qualified && t.Err == "" {
			return 1e12 / (1 + t.LatencyBNNs)
		}
		return t.Accuracy
	}

	// Seed population.
	var population []TrialResult
	for len(population) < ecfg.Population {
		n := opts.Parallel
		if rem := ecfg.Population - len(population); n > rem {
			n = rem
		}
		batch := make([]CandidateConfig, n)
		for i := range batch {
			batch[i] = space.SampleCandidate(rng)
		}
		population = append(population, evalBatch(batch)...)
	}
	// Aging evolution in batches of Parallel.
	for done := 0; done < ecfg.Cycles; {
		n := opts.Parallel
		if rem := ecfg.Cycles - done; n > rem {
			n = rem
		}
		batch := make([]CandidateConfig, n)
		for i := range batch {
			best := population[rng.Intn(len(population))]
			for s := 1; s < ecfg.SampleSize; s++ {
				cand := population[rng.Intn(len(population))]
				if fitness(cand) > fitness(best) {
					best = cand
				}
			}
			batch[i] = space.MutateCandidate(rng, best.Candidate)
		}
		population = append(population[n:], evalBatch(batch)...)
		done += n
	}
	return history
}
