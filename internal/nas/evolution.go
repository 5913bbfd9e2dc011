package nas

import (
	"math/rand"

	"drainnet/internal/model"
)

// tournamentSize is the evolution strategy's parent-selection
// tournament: the fittest of three random members of the population.
const tournamentSize = 3

// choiceIndex returns the index of v in choices (0 if absent).
func choiceIndex(choices []int, v int) int {
	for i, c := range choices {
		if c == v {
			return i
		}
	}
	return 0
}

// mutateArchDim perturbs one named architecture dimension by one step.
func (s Space) mutateArchDim(rng *rand.Rand, cfg model.Config, dim int) model.Config {
	k := cfg.Convs[0].Kernel
	spp1 := cfg.SPPLevels[0]
	fc := cfg.FCWidth
	step := func(choices []int, cur int) int {
		i := choiceIndex(choices, cur)
		if rng.Intn(2) == 0 && i > 0 {
			return choices[i-1]
		}
		if i < len(choices)-1 {
			return choices[i+1]
		}
		if i > 0 {
			return choices[i-1]
		}
		return choices[i]
	}
	switch dim {
	case 0:
		k = step(s.Conv1Kernel.Choices, k)
	case 1:
		spp1 = step(s.SPPFirstLevel.Choices, spp1)
	default:
		fc = step(s.FCWidth.Choices, fc)
	}
	return s.instantiate(k, spp1, fc)
}

// MutateCandidate perturbs exactly one dimension of the joint candidate:
// one of the three architecture mutables, the precision, or the kernel
// mode — the evolution strategy's mutation covers the full joint space,
// so the accuracy-gate ladder and the search cooperate instead of the
// precision/kernel choice being bolted on afterwards.
func (s Space) MutateCandidate(rng *rand.Rand, c CandidateConfig) CandidateConfig {
	dims := []int{0, 1, 2}
	if len(s.precisions()) > 1 {
		dims = append(dims, 3)
	}
	if len(s.kernels()) > 1 {
		dims = append(dims, 4)
	}
	out := c
	switch d := dims[rng.Intn(len(dims))]; d {
	case 3:
		out.Precision = pickOther(rng, s.precisions(), c.Precision)
	case 4:
		out.Kernels = pickOther(rng, s.kernels(), c.Kernels)
	default:
		out.Arch = s.mutateArchDim(rng, c.Arch, d)
	}
	return out
}

// pickOther draws uniformly among the choices different from cur.
func pickOther[T comparable](rng *rand.Rand, choices []T, cur T) T {
	others := make([]T, 0, len(choices))
	for _, c := range choices {
		if c != cur {
			others = append(others, c)
		}
	}
	if len(others) == 0 {
		return cur
	}
	return others[rng.Intn(len(others))]
}

// evolution is regularized (aging) evolution (Real et al.) over the
// joint space with batched-parallel evaluation: a third of the Trials
// budget seeds the population, the rest evolves. Each generation
// proposes up to Parallel children sequentially from the deterministic
// rng (so the trajectory is reproducible for a fixed Seed and Parallel),
// evaluates the unseen ones concurrently, and ages out as many elders as
// children were admitted. Revisited candidates reuse their recorded
// trial — a candidate is never evaluated twice.
func evolution(space Space, eval CandidateEvaluator, opts SearchOptions) []TrialResult {
	population, cycles := max(opts.Trials/3, 2), opts.Trials-opts.Trials/3
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
		// Qualified candidates compete on speed (lower latency =
		// fitter); unqualified ones compete on accuracy below everything
		// qualified, steering the population toward the constraint.
		if t.Qualified && t.Err == "" {
			return 1e12 / (1 + t.LatencyBNNs)
		}
		return t.Accuracy
	}

	// Seed population.
	var pop []TrialResult
	for len(pop) < population {
		n := opts.Parallel
		if rem := population - len(pop); n > rem {
			n = rem
		}
		batch := make([]CandidateConfig, n)
		for i := range batch {
			batch[i] = space.SampleCandidate(rng)
		}
		pop = append(pop, evalBatch(batch)...)
	}
	// Aging evolution in batches of Parallel.
	for done := 0; done < cycles; {
		n := opts.Parallel
		if rem := cycles - done; n > rem {
			n = rem
		}
		batch := make([]CandidateConfig, n)
		for i := range batch {
			best := pop[rng.Intn(len(pop))]
			for s := 1; s < tournamentSize; s++ {
				cand := pop[rng.Intn(len(pop))]
				if fitness(cand) > fitness(best) {
					best = cand
				}
			}
			batch[i] = space.MutateCandidate(rng, best.Candidate)
		}
		pop = append(pop[n:], evalBatch(batch)...)
		done += n
	}
	return history
}
