package nas

import (
	"errors"
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
	rngTrials := RandomSearch(s, FunctionalEvaluator(func(model.Config) (float64, error) { return 0.5, nil }), 60, 3)
	for _, tr := range rngTrials {
		if !valid[tr.Config.Name] {
			t.Fatalf("sampled config %q outside the space", tr.Config.Name)
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

func TestRandomSearchDeterministicAndDeduped(t *testing.T) {
	s := DefaultSpace()
	eval := FunctionalEvaluator(func(cfg model.Config) (float64, error) {
		return float64(cfg.FCWidth%97) / 97, nil
	})
	a := RandomSearch(s, eval, 40, 7)
	b := RandomSearch(s, eval, 40, 7)
	if len(a) != len(b) {
		t.Fatalf("nondeterministic trial count: %d vs %d", len(a), len(b))
	}
	seen := map[string]bool{}
	for i := range a {
		if a[i].Config.Name != b[i].Config.Name {
			t.Fatal("nondeterministic sampling")
		}
		if seen[a[i].Config.Name] {
			t.Fatal("duplicate trial not skipped")
		}
		seen[a[i].Config.Name] = true
	}
}

func TestBestByAccuracy(t *testing.T) {
	trials := []Trial{
		{Config: model.Config{Name: "a"}, Accuracy: 0.5},
		{Config: model.Config{Name: "b"}, Accuracy: 0.9, Err: errors.New("failed")},
		{Config: model.Config{Name: "c"}, Accuracy: 0.7},
	}
	best := BestByAccuracy(trials)
	if best == nil || best.Config.Name != "c" {
		t.Fatalf("best = %+v, want c (errors excluded)", best)
	}
	if BestByAccuracy(nil) != nil {
		t.Fatal("empty trials must give nil")
	}
}

// fakeMeasurer prices latency by FC width (bigger = slower) for tests.
type fakeMeasurer struct{}

func (fakeMeasurer) Latency(cfg model.Config, batch int) (float64, float64, error) {
	l := float64(cfg.FCWidth)
	return 2 * l, l, nil
}

func TestResourceAwareSelection(t *testing.T) {
	trials := []Trial{
		{Config: model.Config{Name: "small-inaccurate", FCWidth: 128}, Accuracy: 0.80},
		{Config: model.Config{Name: "mid", FCWidth: 2048}, Accuracy: 0.97},
		{Config: model.Config{Name: "big", FCWidth: 4096}, Accuracy: 0.98},
		{Config: model.Config{Name: "broken", FCWidth: 64}, Err: errors.New("x")},
	}
	sel, err := ResourceAware(trials, fakeMeasurer{}, 0.965, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Both mid and big pass the constraint; mid is faster and must win —
	// even though big is more accurate. That is the §5.4 semantics.
	if sel.Best().Config.Name != "mid" {
		t.Fatalf("best = %q, want mid", sel.Best().Config.Name)
	}
	if len(sel.Rejected) != 2 {
		t.Fatalf("rejected = %d, want 2", len(sel.Rejected))
	}
}

func TestResourceAwareNoQualifier(t *testing.T) {
	trials := []Trial{{Config: model.Config{Name: "x", FCWidth: 128}, Accuracy: 0.5}}
	if _, err := ResourceAware(trials, fakeMeasurer{}, 0.9, 1); err == nil {
		t.Fatal("expected error when nothing qualifies")
	}
}
