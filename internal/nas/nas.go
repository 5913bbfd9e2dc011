// Package nas implements the neural-architecture-search workflow of the
// paper's §4 and §5: a Retiarii-style model space over the SPP-Net family,
// one multi-trial executor (Search: random, grid or evolution, over
// parallel workers) and the accuracy-constrained efficiency optimization
// of Fig 5 — candidates above the accuracy threshold are priced by the
// evaluator's e(n) oracle and the most efficient one wins:
//
//	maximize e(n), n ∈ N, subject to a(n) > A.
//
// The evaluator is the only thing that differs between oracles: the
// paper's simulated-GPU IOS latency (experiments.SimEvaluator) or the
// measured latency of the compiled executor on this machine
// (MeasuredEvaluator).
package nas

import (
	"fmt"
	"math/rand"
	"sort"

	"drainnet/internal/model"
)

// Mutable is one searchable dimension: a named list of choices.
type Mutable struct {
	Name    string
	Choices []int
}

// KernelMode is the per-candidate conv-kernel dimension of the joint
// space: either the baseline im2col+GEMM kernels everywhere, or the
// per-layer autotuned mix (model.AutotuneKernels picks Winograd / NCHWc /
// direct / int8 per layer and batch bucket, under the accuracy gate).
const (
	KernelModeBaseline = "im2col"
	KernelModeTuned    = "tuned"
)

// Space is the paper's §4.2 search space over the SPP-Net family,
// optionally extended with the serving-efficiency dimensions the repo
// owns: per-candidate numeric precision (accuracy-gated int8) and
// per-layer kernel autotuning. When the extra dimensions are empty the
// space degenerates to the paper's architecture-only search.
type Space struct {
	// Base is the template architecture; mutables override its fields.
	Base model.Config
	// Conv1Kernel is the filter size of the first convolutional layer.
	Conv1Kernel Mutable
	// SPPFirstLevel is the filter size of the first SPP pyramid level.
	SPPFirstLevel Mutable
	// FCWidth is the hidden fully-connected feature size.
	FCWidth Mutable
	// Precisions are the searchable serving precisions (empty = fp32
	// only). Int8 candidates run through the QuantizeGated accuracy gate
	// during measured evaluation, so the search and the gate ladder
	// cooperate instead of running as separate post-passes.
	Precisions []model.Precision
	// Kernels are the searchable kernel modes (KernelModeBaseline /
	// KernelModeTuned; empty = baseline only).
	Kernels []string
}

// CandidateConfig is one point of the joint search space: an
// architecture plus the precision and kernel mode it would serve with.
type CandidateConfig struct {
	Arch      model.Config    `json:"arch"`
	Precision model.Precision `json:"precision"`
	Kernels   string          `json:"kernels"`
}

// Key uniquely identifies the candidate within a space (the dedup and
// result-cache key of the search executor).
func (c CandidateConfig) Key() string {
	return fmt.Sprintf("%s|prec=%s|kern=%s", c.Arch.Name, c.Precision, c.Kernels)
}

// DefaultSpace returns the exact search space of §4.2:
// conv1 kernel ∈ {1,3,5,7,9}, first SPP level ∈ {1..5},
// FC width ∈ {128,256,512,1024,2048,4096,8192}.
func DefaultSpace() Space {
	return Space{
		Base:          model.OriginalSPPNet(),
		Conv1Kernel:   Mutable{Name: "conv1_kernel", Choices: []int{1, 3, 5, 7, 9}},
		SPPFirstLevel: Mutable{Name: "spp_first_level", Choices: []int{1, 2, 3, 4, 5}},
		FCWidth:       Mutable{Name: "fc_width", Choices: []int{128, 256, 512, 1024, 2048, 4096, 8192}},
	}
}

// DefaultJointSpace is DefaultSpace extended with the precision and
// kernel dimensions: §4.2 architectures × {fp32, int8} × {im2col, tuned}.
func DefaultJointSpace() Space {
	s := DefaultSpace()
	s.Precisions = []model.Precision{model.PrecisionFP32, model.PrecisionInt8}
	s.Kernels = []string{KernelModeBaseline, KernelModeTuned}
	return s
}

// Size returns the number of distinct architectures in the space.
func (s Space) Size() int {
	return len(s.Conv1Kernel.Choices) * len(s.SPPFirstLevel.Choices) * len(s.FCWidth.Choices)
}

// precisions returns the searchable precision choices (fp32 when unset).
func (s Space) precisions() []model.Precision {
	if len(s.Precisions) == 0 {
		return []model.Precision{model.PrecisionFP32}
	}
	return s.Precisions
}

// kernels returns the searchable kernel-mode choices (baseline when unset).
func (s Space) kernels() []string {
	if len(s.Kernels) == 0 {
		return []string{KernelModeBaseline}
	}
	return s.Kernels
}

// JointSize returns the number of distinct candidates in the joint space.
func (s Space) JointSize() int {
	return s.Size() * len(s.precisions()) * len(s.kernels())
}

// Contains reports whether the candidate lies inside the space — every
// chosen value must be one of the listed choices.
func (s Space) Contains(c CandidateConfig) bool {
	in := func(choices []int, v int) bool {
		for _, ch := range choices {
			if ch == v {
				return true
			}
		}
		return false
	}
	if !in(s.Conv1Kernel.Choices, c.Arch.Convs[0].Kernel) ||
		!in(s.SPPFirstLevel.Choices, c.Arch.SPPLevels[0]) ||
		!in(s.FCWidth.Choices, c.Arch.FCWidth) {
		return false
	}
	okPrec := false
	for _, p := range s.precisions() {
		if p == c.Precision {
			okPrec = true
		}
	}
	okKern := false
	for _, k := range s.kernels() {
		if k == c.Kernels {
			okKern = true
		}
	}
	return okPrec && okKern
}

// SampleCandidate draws one joint candidate uniformly at random. A
// dimension with a single choice consumes no draw, so on an
// architecture-only space the stream is exactly Sample's.
func (s Space) SampleCandidate(rng *rand.Rand) CandidateConfig {
	pick := func(n int) int {
		if n < 2 {
			return 0
		}
		return rng.Intn(n)
	}
	precs, kerns := s.precisions(), s.kernels()
	return CandidateConfig{
		Arch:      s.Sample(rng),
		Precision: precs[pick(len(precs))],
		Kernels:   kerns[pick(len(kerns))],
	}
}

// AllCandidates enumerates the joint space (grid strategy).
func (s Space) AllCandidates() []CandidateConfig {
	var out []CandidateConfig
	for _, cfg := range s.All() {
		for _, p := range s.precisions() {
			for _, k := range s.kernels() {
				out = append(out, CandidateConfig{Arch: cfg, Precision: p, Kernels: k})
			}
		}
	}
	return out
}

// instantiate builds the config for one choice tuple.
func (s Space) instantiate(k, spp1, fc int) model.Config {
	cfg := s.Base
	cfg.Convs = append([]model.ConvSpec(nil), s.Base.Convs...)
	cfg.Convs[0].Kernel = k
	// First pyramid level is searched; the finer levels stay (2, 1) as in
	// the paper's candidates. A first level equal to 2 or 1 degenerates to
	// fewer distinct levels; keep them unique and sorted descending.
	levels := []int{spp1, 2, 1}
	cfg.SPPLevels = dedupeDescending(levels)
	cfg.FCWidth = fc
	cfg.Name = fmt.Sprintf("sppnet-k%d-spp%d-fc%d", k, spp1, fc)
	return cfg
}

func dedupeDescending(levels []int) []int {
	sort.Sort(sort.Reverse(sort.IntSlice(levels)))
	out := levels[:0]
	prev := -1
	for _, l := range levels {
		if l != prev {
			out = append(out, l)
			prev = l
		}
	}
	return out
}

// Sample draws one architecture uniformly at random (the paper's random
// exploration strategy).
func (s Space) Sample(rng *rand.Rand) model.Config {
	k := s.Conv1Kernel.Choices[rng.Intn(len(s.Conv1Kernel.Choices))]
	spp1 := s.SPPFirstLevel.Choices[rng.Intn(len(s.SPPFirstLevel.Choices))]
	fc := s.FCWidth.Choices[rng.Intn(len(s.FCWidth.Choices))]
	return s.instantiate(k, spp1, fc)
}

// All enumerates the entire space (grid strategy).
func (s Space) All() []model.Config {
	var out []model.Config
	for _, k := range s.Conv1Kernel.Choices {
		for _, spp1 := range s.SPPFirstLevel.Choices {
			for _, fc := range s.FCWidth.Choices {
				out = append(out, s.instantiate(k, spp1, fc))
			}
		}
	}
	return out
}
