package nas

import (
	"math/rand"
	"testing"

	"drainnet/internal/model"
)

// hillEvaluator is a smooth synthetic objective with a unique optimum at
// (k=5, spp1=4, fc=2048), used to compare strategy sample-efficiency.
// Nothing qualifies, so evolution's fitness is the accuracy itself.
var hillEvaluator = archEvaluator(2, func(cfg model.Config) float64 {
	score := 1.0
	score -= 0.02 * absf(float64(cfg.Convs[0].Kernel-5))
	score -= 0.03 * absf(float64(cfg.SPPLevels[0]-4))
	switch cfg.FCWidth {
	case 2048:
	case 1024, 4096:
		score -= 0.02
	default:
		score -= 0.05
	}
	return score
}, nil)

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// evolve runs the evolution strategy on the architecture-only space.
func evolve(t *testing.T, trials int, seed int64) []TrialResult {
	t.Helper()
	res, err := Search(DefaultSpace(), hillEvaluator, SearchOptions{Strategy: "evolution", Trials: trials, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return res.Trials
}

// bestAccuracy is the highest a(n) in a trial history.
func bestAccuracy(ts []TrialResult) float64 {
	best := 0.0
	for _, tr := range ts {
		best = max(best, tr.Accuracy)
	}
	return best
}

func TestEvolutionSearchStaysInSpace(t *testing.T) {
	s := DefaultSpace()
	trials := evolve(t, 32, 1)
	if len(trials) == 0 {
		t.Fatal("no trials")
	}
	for _, tr := range trials {
		if !s.Contains(tr.Candidate) {
			t.Fatalf("evolved candidate %s outside the space", tr.Key)
		}
	}
}

func TestEvolutionSearchDeterministic(t *testing.T) {
	a, b := evolve(t, 32, 1), evolve(t, 32, 1)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Key != b[i].Key {
			t.Fatal("evolution not deterministic for fixed seed")
		}
	}
}

func TestEvolutionImprovesOverTime(t *testing.T) {
	trials := evolve(t, 68, 1)
	// Mean accuracy of the last quarter must beat the first quarter.
	q := len(trials) / 4
	if q == 0 {
		t.Skip("too few trials")
	}
	mean := func(ts []TrialResult) float64 {
		var sum float64
		for _, tr := range ts {
			sum += tr.Accuracy
		}
		return sum / float64(len(ts))
	}
	early, late := mean(trials[:q]), mean(trials[len(trials)-q:])
	if late <= early {
		t.Fatalf("evolution did not improve: early %.4f, late %.4f", early, late)
	}
}

func TestEvolutionVsRandomSampleEfficiency(t *testing.T) {
	// With the same evaluation budget, evolution's best should match or
	// beat random search's best on the smooth hill objective.
	evo := evolve(t, 48, 1)
	budget := len(evo)
	rnd, err := Search(DefaultSpace(), hillEvaluator, SearchOptions{Strategy: "random", Trials: budget, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	be, br := bestAccuracy(evo), bestAccuracy(rnd.Trials)
	if be < br-1e-9 {
		t.Fatalf("evolution best %.4f below random best %.4f at equal budget (%d evals)", be, br, budget)
	}
}

func TestMutateChangesExactlyOneDimension(t *testing.T) {
	s := DefaultSpace()
	base := CandidateConfig{Arch: s.instantiate(5, 3, 1024), Precision: model.PrecisionFP32, Kernels: KernelModeBaseline}
	for seed := int64(0); seed < 20; seed++ {
		m := s.MutateCandidate(newRng(seed), base).Arch
		diffs := 0
		if m.Convs[0].Kernel != base.Arch.Convs[0].Kernel {
			diffs++
		}
		if m.SPPLevels[0] != base.Arch.SPPLevels[0] {
			diffs++
		}
		if m.FCWidth != base.Arch.FCWidth {
			diffs++
		}
		if diffs != 1 {
			t.Fatalf("seed %d: mutation changed %d dimensions", seed, diffs)
		}
	}
}

func newRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
