package nas

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"
)

// CandidateEvaluator scores one joint candidate end to end: a(n), the
// constraint, and e(n). MeasuredEvaluator prices candidates on this
// machine, experiments.SimEvaluator on the paper's simulated GPU; tests
// substitute cheap stubs.
type CandidateEvaluator interface {
	EvaluateCandidate(c CandidateConfig) TrialResult
}

// CandidateEvaluatorFunc adapts a plain function to CandidateEvaluator.
type CandidateEvaluatorFunc func(c CandidateConfig) TrialResult

// EvaluateCandidate implements CandidateEvaluator.
func (f CandidateEvaluatorFunc) EvaluateCandidate(c CandidateConfig) TrialResult { return f(c) }

// TrialResult is one scored candidate of the search — the row the
// ranked trial table renders and the winner's plan.json records.
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
	// LatencyB1Ns and LatencyBNNs are e(n) at batch 1 and at the
	// evaluator's large batch (the sim oracle prices batch 1 only and
	// reports it in both).
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

// SearchOptions configures a search run.
type SearchOptions struct {
	// Strategy is "random" (paper §4.2, default), "grid" (exhaustive
	// joint space), or "evolution" (batched aging evolution).
	Strategy string `json:"strategy"`
	// Trials is the number of distinct candidates for random search; grid
	// ignores it; evolution seeds its population with a third of it and
	// evolves the rest.
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
}

// SearchResult is the outcome of one search.
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

// Ranked returns the qualified trials ordered by large-batch latency,
// then batch-1 latency, then evaluation order (a tie goes to the trial
// evaluated first), then key — a total, reproducible order. The winner
// is the head of this ranking: the fastest candidate satisfying
// a(n) > A, the paper's arg max e(n).
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
		if q[i].Order != q[j].Order {
			return q[i].Order < q[j].Order
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
	fmt.Fprintf(&b, "NAS: %d trials (%d qualified, %d prefiltered, %d cache hits), %.0f ms wall, parallel=%d\n",
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

// Search runs the NAS: it proposes joint candidates with the chosen
// strategy, fans evaluations out over Parallel workers sharing one
// evaluator (and therefore one cost cache), dedupes revisited candidates
// so nothing is scored twice, and returns the full history.
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
		trials = evolution(space, eval, opts)
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
