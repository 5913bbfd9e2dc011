package nas

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"drainnet/internal/model"
	"drainnet/internal/train"
)

// TestWinnerRoundTrip: SaveWinner writes a plan + checkpoint that load
// back into an identical serving configuration and identical weights —
// the drainnet-nas → drainnet-serve handoff.
func TestWinnerRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := tinySpace()
	arch := s.instantiate(3, 2, 128).Scaled(16).WithInput(4, 40)
	net, err := arch.Build(rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	trial := TrialResult{
		Candidate: CandidateConfig{Arch: s.instantiate(3, 2, 128), Precision: model.PrecisionInt8, Kernels: KernelModeTuned},
		Key:       "x", Accuracy: 0.93, Qualified: true,
		LatencyB1Ns: 1e6, LatencyBNNs: 4e6,
	}
	if _, err := SaveWinner(dir, trial, arch, net, 0.9, 16); err != nil {
		t.Fatal(err)
	}

	planPath := filepath.Join(dir, "plan.json")
	p, err := LoadWinnerPlan(planPath)
	if err != nil {
		t.Fatal(err)
	}
	if p.Arch.Name != arch.Name || p.Arch.WidthScale != 16 || p.Arch.InSize != 40 {
		t.Fatalf("plan arch mangled: %+v", p.Arch)
	}
	if p.Candidate.Precision != model.PrecisionInt8 || p.Candidate.Kernels != KernelModeTuned {
		t.Fatalf("plan candidate mangled: %+v", p.Candidate)
	}
	if p.Threshold != 0.9 || p.MaxBatch != 16 || p.Accuracy != 0.93 {
		t.Fatalf("plan metadata mangled: %+v", p)
	}

	// The checkpoint must load into a net built from the plan's arch.
	net2, err := p.Arch.Build(rand.New(rand.NewSource(99)))
	if err != nil {
		t.Fatal(err)
	}
	if err := train.LoadFile(p.ResolveCheckpoint(planPath), net2); err != nil {
		t.Fatalf("checkpoint does not load into plan arch: %v", err)
	}
	w1, w2 := net.Params(), net2.Params()
	if len(w1) != len(w2) {
		t.Fatalf("parameter count mismatch: %d vs %d", len(w1), len(w2))
	}
	for i := range w1 {
		a, b := w1[i].Value.Data(), w2[i].Value.Data()
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("weights differ at param %d index %d", i, j)
			}
		}
	}
}

// TestLoadWinnerPlanRejectsBadVersion guards the format.
func TestLoadWinnerPlanRejectsBadVersion(t *testing.T) {
	if _, err := LoadWinnerPlan(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing plan loaded without error")
	}
}

// savedPlan returns the plan.json SaveWinner writes for an int8, tuned
// winner.
func savedPlan(tb testing.TB) []byte {
	tb.Helper()
	dir := tb.TempDir()
	s := tinySpace()
	arch := s.instantiate(3, 2, 128).Scaled(16).WithInput(4, 40)
	net, err := arch.Build(rand.New(rand.NewSource(7)))
	if err != nil {
		tb.Fatal(err)
	}
	trial := TrialResult{
		Candidate: CandidateConfig{Arch: s.instantiate(3, 2, 128), Precision: model.PrecisionInt8, Kernels: KernelModeTuned},
		Key:       "x", Accuracy: 0.93, Qualified: true,
	}
	if _, err := SaveWinner(dir, trial, arch, net, 0.9, 16); err != nil {
		tb.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "plan.json"))
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// tear replaces the first from in a saved plan with to.
func tear(tb testing.TB, saved []byte, from, to string) []byte {
	tb.Helper()
	if !bytes.Contains(saved, []byte(from)) {
		tb.Fatalf("saved plan has no %s", from)
	}
	return bytes.Replace(saved, []byte(from), []byte(to), 1)
}

// FuzzLoadWinnerPlan: a load either fails, or returns a plan whose
// architecture validates and whose precision and kernel mode are ones
// drainnet-serve knows — it applies them as recorded, so an unknown one
// must not load as a silent default. The seeds include a pool with no
// stride, which Validate must refuse rather than divide by.
func FuzzLoadWinnerPlan(f *testing.F) {
	saved := savedPlan(f)
	f.Add(saved)
	for i, b := range saved {
		if strings.IndexByte(`{}[]:,"`, b) >= 0 {
			f.Add(saved[:i])
			f.Add(saved[:i+1])
		}
	}
	for _, edit := range [][2]string{
		{`"PoolStride": 2`, `"PoolStride": 0`},
		{`"PoolSize": 2`, `"PoolSize": -2`},
		{`"kernels": "tuned"`, `"kernels": "winograd"`},
		{`"kernels": "tuned"`, `"kernels": ""`},
		{`"precision": "int8"`, `"precision": "fp16"`},
		{`"version": 1`, `"version": 2`},
		{`"InSize": 40`, `"InSize": 4`},
	} {
		f.Add(tear(f, saved, edit[0], edit[1]))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "plan.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		p, err := LoadWinnerPlan(path)
		if err != nil {
			return
		}
		if err := p.Arch.Validate(); err != nil {
			t.Fatalf("loaded an arch that does not validate: %v", err)
		}
		if _, err := model.ParsePrecision(string(p.Candidate.Precision)); err != nil {
			t.Fatalf("loaded precision %q: %v", p.Candidate.Precision, err)
		}
		if k := p.Candidate.Kernels; k != KernelModeBaseline && k != KernelModeTuned {
			t.Fatalf("loaded kernel mode %q", k)
		}
	})
}
