package nas

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"drainnet/internal/model"
	"drainnet/internal/nn"
	"drainnet/internal/provenance"
	"drainnet/internal/train"
)

// WinnerPlan is the persisted outcome of a measured search: everything
// drainnet-serve needs to serve the winning candidate exactly as it was
// measured — the scaled architecture, the trained weights (a sibling
// checkpoint file), and the precision/kernel decisions the latency was
// measured under.
type WinnerPlan struct {
	// Version guards the format.
	Version int `json:"version"`
	// Candidate is the winning point of the joint search space.
	Candidate CandidateConfig `json:"candidate"`
	// Arch is the scaled serving configuration (input geometry included);
	// build this config and load Checkpoint into it.
	Arch model.Config `json:"arch"`
	// Threshold is the accuracy constraint A the search ran under;
	// Accuracy is the winner's held-out a(n).
	Threshold float64 `json:"threshold"`
	Accuracy  float64 `json:"accuracy"`
	// MaxBatch and the measured latencies document the e(n) the winner
	// was selected on.
	MaxBatch    int     `json:"max_batch"`
	LatencyB1Ns float64 `json:"latency_b1_ns"`
	LatencyBNNs float64 `json:"latency_bn_ns"`
	// Checkpoint is the weights file, relative to the plan's directory.
	Checkpoint string `json:"checkpoint"`
	// Stamp records the machine the latencies were measured on.
	Stamp *provenance.Stamp `json:"provenance,omitempty"`
}

// winnerPlanVersion bumps on incompatible format changes.
const winnerPlanVersion = 1

// SaveWinner persists a search winner into dir: the trained weights as
// winner.ckpt (gob checkpoint, loadable by drainnet-serve -ckpt) and the
// serving plan as plan.json (loadable by drainnet-serve -nas-plan).
func SaveWinner(dir string, t TrialResult, arch model.Config, net *nn.Sequential, threshold float64, maxBatch int) (*WinnerPlan, error) {
	if net == nil {
		return nil, fmt.Errorf("nas: no trained network for winner %s", t.Key)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := train.SaveFile(filepath.Join(dir, "winner.ckpt"), net); err != nil {
		return nil, fmt.Errorf("nas: winner checkpoint: %w", err)
	}
	p := &WinnerPlan{
		Version:     winnerPlanVersion,
		Candidate:   t.Candidate,
		Arch:        arch,
		Threshold:   threshold,
		Accuracy:    t.Accuracy,
		MaxBatch:    maxBatch,
		LatencyB1Ns: t.LatencyB1Ns,
		LatencyBNNs: t.LatencyBNNs,
		Checkpoint:  "winner.ckpt",
		Stamp:       provenance.Collect(),
	}
	data, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return nil, err
	}
	path := filepath.Join(dir, "plan.json")
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return nil, err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return nil, err
	}
	return p, nil
}

// LoadWinnerPlan reads a plan.json written by SaveWinner.
func LoadWinnerPlan(path string) (*WinnerPlan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var p WinnerPlan
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("nas: winner plan %s: %w", path, err)
	}
	if p.Version != winnerPlanVersion {
		return nil, fmt.Errorf("nas: winner plan %s: version %d, want %d", path, p.Version, winnerPlanVersion)
	}
	if err := p.Arch.Validate(); err != nil {
		return nil, fmt.Errorf("nas: winner plan %s: %w", path, err)
	}
	// drainnet-serve applies the candidate's precision and kernel mode as
	// recorded; a value it would not recognise must not load as a default.
	if _, err := model.ParsePrecision(string(p.Candidate.Precision)); err != nil {
		return nil, fmt.Errorf("nas: winner plan %s: %w", path, err)
	}
	if k := p.Candidate.Kernels; k != KernelModeBaseline && k != KernelModeTuned {
		return nil, fmt.Errorf("nas: winner plan %s: unknown kernel mode %q (want %s or %s)", path, k, KernelModeBaseline, KernelModeTuned)
	}
	return &p, nil
}

// ResolveCheckpoint returns the absolute-ish checkpoint path for a plan
// loaded from planPath (the checkpoint is stored relative to the plan's
// directory).
func (p *WinnerPlan) ResolveCheckpoint(planPath string) string {
	if filepath.IsAbs(p.Checkpoint) {
		return p.Checkpoint
	}
	return filepath.Join(filepath.Dir(planPath), p.Checkpoint)
}
