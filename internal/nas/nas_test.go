package nas

import (
	"testing"

	"drainnet/internal/model"
)

func TestDefaultSpaceMatchesPaper(t *testing.T) {
	s := DefaultSpace()
	if got := s.Size(); got != 5*5*7 {
		t.Fatalf("space size = %d, want 175", got)
	}
	wantKernels := []int{1, 3, 5, 7, 9}
	for i, k := range wantKernels {
		if s.Conv1Kernel.Choices[i] != k {
			t.Fatalf("conv1 kernels = %v", s.Conv1Kernel.Choices)
		}
	}
	if len(s.FCWidth.Choices) != 7 || s.FCWidth.Choices[0] != 128 || s.FCWidth.Choices[6] != 8192 {
		t.Fatalf("fc widths = %v", s.FCWidth.Choices)
	}
}

func TestAllEnumeratesWholeSpace(t *testing.T) {
	s := DefaultSpace()
	all := s.All()
	if len(all) != s.Size() {
		t.Fatalf("All() = %d configs, want %d", len(all), s.Size())
	}
	seen := map[string]bool{}
	for _, cfg := range all {
		if seen[cfg.Name] {
			t.Fatalf("duplicate config %q", cfg.Name)
		}
		seen[cfg.Name] = true
		if err := cfg.Validate(); err != nil {
			t.Fatalf("invalid config %q: %v", cfg.Name, err)
		}
	}
}

func TestSampleStaysInSpace(t *testing.T) {
	s := DefaultSpace()
	valid := map[string]bool{}
	for _, cfg := range s.All() {
		valid[cfg.Name] = true
	}
	rng := newRng(3)
	for i := 0; i < 60; i++ {
		if cfg := s.Sample(rng); !valid[cfg.Name] {
			t.Fatalf("sampled config %q outside the space", cfg.Name)
		}
	}
}

// TestSampleCandidateMatchesSampleOnArchSpace: a dimension with one
// choice consumes no draw, so the architecture-only space yields the
// same stream through SampleCandidate as through Sample.
func TestSampleCandidateMatchesSampleOnArchSpace(t *testing.T) {
	s := DefaultSpace()
	a, b := newRng(5), newRng(5)
	for i := 0; i < 50; i++ {
		c := s.SampleCandidate(a)
		if want := s.Sample(b); c.Arch.Name != want.Name {
			t.Fatalf("draw %d: SampleCandidate %s, Sample %s", i, c.Arch.Name, want.Name)
		}
		if c.Precision != model.PrecisionFP32 || c.Kernels != KernelModeBaseline {
			t.Fatalf("draw %d: candidate %s outside the fp32/im2col space", i, c.Key())
		}
	}
}

func TestSPPLevelDegenerateChoices(t *testing.T) {
	s := DefaultSpace()
	// First level 1 or 2 collapses duplicate pyramid levels.
	cfg := s.instantiate(3, 2, 1024)
	if len(cfg.SPPLevels) != 2 || cfg.SPPLevels[0] != 2 || cfg.SPPLevels[1] != 1 {
		t.Fatalf("levels for spp1=2: %v", cfg.SPPLevels)
	}
	cfg = s.instantiate(3, 1, 1024)
	if len(cfg.SPPLevels) != 2 {
		t.Fatalf("levels for spp1=1: %v", cfg.SPPLevels)
	}
	cfg = s.instantiate(3, 5, 1024)
	if len(cfg.SPPLevels) != 3 || cfg.SPPLevels[0] != 5 {
		t.Fatalf("levels for spp1=5: %v", cfg.SPPLevels)
	}
}

// archEvaluator scores every candidate with accuracy acc(arch) and,
// when that clears threshold, latency lat(arch) at both batch sizes.
func archEvaluator(threshold float64, acc, lat func(model.Config) float64) CandidateEvaluator {
	return CandidateEvaluatorFunc(func(c CandidateConfig) TrialResult {
		r := TrialResult{Candidate: c, Key: c.Key(), Accuracy: acc(c.Arch)}
		if r.Accuracy > threshold {
			r.Qualified = true
			r.LatencyB1Ns = lat(c.Arch)
			r.LatencyBNNs = r.LatencyB1Ns
		}
		return r
	})
}

func TestRandomSearchDeterministicAndDeduped(t *testing.T) {
	s := DefaultSpace()
	eval := archEvaluator(2, func(cfg model.Config) float64 { return float64(cfg.FCWidth%97) / 97 }, nil)
	opts := SearchOptions{Strategy: "random", Trials: 40, Seed: 7}
	a, err := Search(s, eval, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Search(s, eval, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Trials) != 40 || len(b.Trials) != 40 {
		t.Fatalf("trial counts %d and %d, want 40 distinct", len(a.Trials), len(b.Trials))
	}
	seen := map[string]bool{}
	for i := range a.Trials {
		if a.Trials[i].Key != b.Trials[i].Key {
			t.Fatal("nondeterministic sampling")
		}
		if seen[a.Trials[i].Key] {
			t.Fatal("duplicate trial not skipped")
		}
		seen[a.Trials[i].Key] = true
	}
}

// TestResourceAwareSelection: the §5.4 semantics — among candidates
// with a(n) > A the fastest wins, even over a more accurate one, and
// failed or inaccurate candidates never rank.
func TestResourceAwareSelection(t *testing.T) {
	s := DefaultSpace()
	s.Conv1Kernel.Choices = []int{3}
	s.SPPFirstLevel.Choices = []int{4}
	s.FCWidth.Choices = []int{128, 2048, 4096, 8192}
	acc := map[int]float64{128: 0.80, 2048: 0.97, 4096: 0.98}
	eval := CandidateEvaluatorFunc(func(c CandidateConfig) TrialResult {
		r := TrialResult{Candidate: c, Key: c.Key(), Accuracy: acc[c.Arch.FCWidth]}
		switch {
		case c.Arch.FCWidth == 8192:
			r.Err = "broken"
		case r.Accuracy > 0.965:
			r.Qualified = true
			r.LatencyB1Ns = float64(c.Arch.FCWidth)
			r.LatencyBNNs = r.LatencyB1Ns
		}
		return r
	})
	res, err := Search(s, eval, SearchOptions{Strategy: "grid"})
	if err != nil {
		t.Fatal(err)
	}
	if w := res.Winner(); w == nil || w.Candidate.Arch.FCWidth != 2048 {
		t.Fatalf("winner = %+v, want fc2048", w)
	}
	if len(res.Ranked()) != 2 || len(res.Trials)-res.Qualified != 2 {
		t.Fatalf("%d ranked, %d rejected; want 2 and 2", len(res.Ranked()), len(res.Trials)-res.Qualified)
	}
}

func TestResourceAwareNoQualifier(t *testing.T) {
	s := DefaultSpace()
	eval := archEvaluator(0.9, func(model.Config) float64 { return 0.5 }, nil)
	res, err := Search(s, eval, SearchOptions{Strategy: "random", Trials: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Winner() != nil || res.Qualified != 0 {
		t.Fatal("a winner when nothing qualifies")
	}
}
