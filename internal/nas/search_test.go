package nas

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"drainnet/internal/model"
	"drainnet/internal/nn"
)

// stubEvaluator scores candidates analytically: accuracy rewards wide
// FCs, latency charges for kernel size and fp32, with counters for
// dedup assertions.
type stubEvaluator struct {
	threshold float64
	mu        sync.Mutex
	calls     map[string]int
}

func newStubEvaluator(threshold float64) *stubEvaluator {
	return &stubEvaluator{threshold: threshold, calls: map[string]int{}}
}

func (s *stubEvaluator) EvaluateCandidate(c CandidateConfig) TrialResult {
	s.mu.Lock()
	s.calls[c.Key()]++
	s.mu.Unlock()
	acc := 0.80 + float64(c.Arch.FCWidth%4096)/40960 + float64(c.Arch.Convs[0].Kernel)/100
	lat := float64(c.Arch.Convs[0].Kernel*1000 + c.Arch.FCWidth)
	if c.Precision == model.PrecisionInt8 {
		lat *= 0.6
	}
	if c.Kernels == KernelModeTuned {
		lat *= 0.8
	}
	r := TrialResult{Candidate: c, Key: c.Key(), Accuracy: acc}
	if acc > s.threshold {
		r.Qualified = true
		r.LatencyB1Ns = lat
		r.LatencyBNNs = lat * 8
	}
	return r
}

func (s *stubEvaluator) totalCalls() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, c := range s.calls {
		n += c
	}
	return n
}

func (s *stubEvaluator) maxCallsPerKey() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := 0
	for _, c := range s.calls {
		if c > m {
			m = c
		}
	}
	return m
}

func trialKeys(ts []TrialResult) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.Key
	}
	return out
}

// TestJointSpaceSampleAndContains: every sample of the joint space is a
// member, and the joint size counts arch × precision × kernel.
func TestJointSpaceSampleAndContains(t *testing.T) {
	s := DefaultJointSpace()
	if got, want := s.JointSize(), s.Size()*2*2; got != want {
		t.Fatalf("JointSize = %d, want %d", got, want)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		c := s.SampleCandidate(rng)
		if !s.Contains(c) {
			t.Fatalf("sampled candidate %s not in space", c.Key())
		}
	}
	if got := len(s.AllCandidates()); got != s.JointSize() {
		t.Fatalf("AllCandidates = %d, want %d", got, s.JointSize())
	}
}

// TestMutateCandidateStaysInSpace: arbitrary mutation chains never leave
// the joint space and each step changes exactly one dimension.
func TestMutateCandidateStaysInSpace(t *testing.T) {
	s := DefaultJointSpace()
	rng := rand.New(rand.NewSource(11))
	c := s.SampleCandidate(rng)
	for i := 0; i < 500; i++ {
		next := s.MutateCandidate(rng, c)
		if !s.Contains(next) {
			t.Fatalf("step %d: mutated candidate %s left the space", i, next.Key())
		}
		changed := 0
		if next.Arch.Name != c.Arch.Name {
			changed++
		}
		if next.Precision != c.Precision {
			changed++
		}
		if next.Kernels != c.Kernels {
			changed++
		}
		if changed > 1 {
			t.Fatalf("step %d: mutation changed %d dimensions (%s -> %s)", i, changed, c.Key(), next.Key())
		}
		c = next
	}
}

// TestSearchDeterministicSameSeed: two searches with the same seed visit
// the same candidates in the same order and agree on the winner, for
// every strategy.
func TestSearchDeterministicSameSeed(t *testing.T) {
	s := DefaultJointSpace()
	for _, strategy := range []string{"random", "grid", "evolution"} {
		opts := SearchOptions{Strategy: strategy, Trials: 20, Seed: 42, Parallel: 1}
		r1, err := Search(s, newStubEvaluator(0.9), opts)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := Search(s, newStubEvaluator(0.9), opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(trialKeys(r1.Trials), trialKeys(r2.Trials)) {
			t.Fatalf("%s: same seed visited different candidates", strategy)
		}
		w1, w2 := r1.Winner(), r2.Winner()
		if (w1 == nil) != (w2 == nil) || (w1 != nil && w1.Key != w2.Key) {
			t.Fatalf("%s: same seed, different winner", strategy)
		}
	}
}

// TestSearchJointStreamGolden: on the joint space every strategy, at
// Parallel 1 and 3, evaluates the candidate key sequence recorded from
// the search before its architecture-only twin was folded into it
// (testdata/joint_search_golden.json: count and sha256 of the keys,
// newline-joined).
func TestSearchJointStreamGolden(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "joint_search_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]struct {
		Trials int    `json:"trials"`
		SHA256 string `json:"sha256"`
	}
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	for _, strategy := range []string{"random", "grid", "evolution"} {
		for _, par := range []int{1, 3} {
			name := fmt.Sprintf("%s/p%d", strategy, par)
			r, err := Search(DefaultJointSpace(), newStubEvaluator(0.9), SearchOptions{Strategy: strategy, Trials: 20, Seed: 42, Parallel: par})
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256([]byte(strings.Join(trialKeys(r.Trials), "\n")))
			want, ok := golden[name]
			if !ok {
				t.Fatalf("%s: no golden", name)
			}
			if len(r.Trials) != want.Trials || hex.EncodeToString(sum[:]) != want.SHA256 {
				t.Fatalf("%s: %d trials, keys sha256 %x; golden %d, %s", name, len(r.Trials), sum, want.Trials, want.SHA256)
			}
		}
	}
}

// TestSearchDedupNoDoubleEval: a small space forces revisits; no
// candidate may be evaluated twice, in any strategy or parallelism.
func TestSearchDedupNoDoubleEval(t *testing.T) {
	s := DefaultSpace()
	s.Conv1Kernel.Choices = []int{3, 5}
	s.SPPFirstLevel.Choices = []int{3}
	s.FCWidth.Choices = []int{256, 1024}
	s.Precisions = []model.Precision{model.PrecisionFP32, model.PrecisionInt8}
	for _, strategy := range []string{"random", "evolution"} {
		for _, par := range []int{1, 4} {
			eval := newStubEvaluator(0.85)
			r, err := Search(s, eval, SearchOptions{Strategy: strategy, Trials: 30, Seed: 3, Parallel: par})
			if err != nil {
				t.Fatal(err)
			}
			if eval.maxCallsPerKey() > 1 {
				t.Fatalf("%s parallel=%d: a candidate was evaluated more than once", strategy, par)
			}
			if eval.totalCalls() != len(r.Trials) {
				t.Fatalf("%s parallel=%d: history has %d trials but evaluator ran %d times",
					strategy, par, len(r.Trials), eval.totalCalls())
			}
			seen := map[string]bool{}
			for _, tr := range r.Trials {
				if seen[tr.Key] {
					t.Fatalf("%s parallel=%d: history lists %s twice", strategy, par, tr.Key)
				}
				seen[tr.Key] = true
			}
		}
	}
}

// TestSearchParallelSameCandidateSet: random and grid strategies evaluate
// the exact same candidate set (and pick the same winner) at any
// parallelism — the property the speedup benchmark relies on.
func TestSearchParallelSameCandidateSet(t *testing.T) {
	s := DefaultJointSpace()
	for _, strategy := range []string{"random", "grid"} {
		seq, err := Search(s, newStubEvaluator(0.9), SearchOptions{Strategy: strategy, Trials: 16, Seed: 5, Parallel: 1})
		if err != nil {
			t.Fatal(err)
		}
		par, err := Search(s, newStubEvaluator(0.9), SearchOptions{Strategy: strategy, Trials: 16, Seed: 5, Parallel: 4})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(trialKeys(seq.Trials), trialKeys(par.Trials)) {
			t.Fatalf("%s: parallel run changed the candidate set or order", strategy)
		}
		if seq.Winner().Key != par.Winner().Key {
			t.Fatalf("%s: parallel run changed the winner", strategy)
		}
	}
}

// TestSearchParallelOverlaps: with a blocking evaluator, 4 workers make
// progress concurrently — proving evalOrdered genuinely fans out.
func TestSearchParallelOverlaps(t *testing.T) {
	s := DefaultJointSpace()
	var inFlight, peak int32
	eval := CandidateEvaluatorFunc(func(c CandidateConfig) TrialResult {
		n := atomic.AddInt32(&inFlight, 1)
		for {
			p := atomic.LoadInt32(&peak)
			if n <= p || atomic.CompareAndSwapInt32(&peak, p, n) {
				break
			}
		}
		// Wait (yielding) until at least 2 are in flight, with a deadline
		// so a genuinely serial executor fails instead of hanging.
		deadline := time.Now().Add(2 * time.Second)
		for atomic.LoadInt32(&peak) < 2 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		atomic.AddInt32(&inFlight, -1)
		return TrialResult{Candidate: c, Key: c.Key(), Accuracy: 1, Qualified: true, LatencyBNNs: 1}
	})
	if _, err := Search(s, eval, SearchOptions{Strategy: "random", Trials: 32, Seed: 1, Parallel: 4}); err != nil {
		t.Fatal(err)
	}
	if atomic.LoadInt32(&peak) < 2 {
		t.Fatalf("peak concurrent evaluations = %d, want ≥ 2", peak)
	}
}

// TestSearchRankingPrefersFastQualified: the winner is the fastest
// measured candidate among those satisfying a(n) > A — never an
// unqualified one, however fast.
func TestSearchRankingPrefersFastQualified(t *testing.T) {
	r := &SearchResult{Trials: []TrialResult{
		{Key: "slow-qualified", Qualified: true, Accuracy: 0.95, LatencyBNNs: 100, LatencyB1Ns: 10},
		{Key: "fast-unqualified", Qualified: false, Accuracy: 0.50, LatencyBNNs: 1},
		{Key: "fast-qualified", Qualified: true, Accuracy: 0.91, LatencyBNNs: 10, LatencyB1Ns: 2},
		{Key: "errored", Qualified: true, Err: "boom", LatencyBNNs: 0.1},
	}}
	w := r.Winner()
	if w == nil || w.Key != "fast-qualified" {
		t.Fatalf("winner = %+v, want fast-qualified", w)
	}
	ranked := r.Ranked()
	if len(ranked) != 2 {
		t.Fatalf("ranked %d trials, want 2 qualified", len(ranked))
	}
}

// tinyTrainer builds untrained networks and reports a deterministic
// pseudo-accuracy, standing in for the real training protocol so the
// measured pipeline itself can be exercised quickly.
func tinyTrainer(acc float64) Trainer {
	return TrainerFunc(func(cfg model.Config) (*nn.Sequential, float64, error) {
		net, err := cfg.Build(rand.New(rand.NewSource(1)))
		return net, acc, err
	})
}

func tinySpace() Space {
	s := DefaultSpace()
	s.Conv1Kernel.Choices = []int{3}
	s.SPPFirstLevel.Choices = []int{2}
	s.FCWidth.Choices = []int{128, 256}
	return s
}

// TestMeasuredEvaluatorPipeline: end-to-end on a tiny untrained net —
// the evaluator trains (stub), schedules, compiles and benches, fills
// the candidate-level cache, and a second evaluation is a pure cache hit
// with bit-identical latencies.
func TestMeasuredEvaluatorPipeline(t *testing.T) {
	cache := model.NewCostCache()
	s := tinySpace()
	ev := &MeasuredEvaluator{
		Trainer:   tinyTrainer(0.95),
		Threshold: 0.9,
		InBands:   4, InSize: 40, WidthScale: 16,
		MaxBatch: 4, Cache: cache,
	}
	c := CandidateConfig{Arch: s.instantiate(3, 2, 128), Precision: model.PrecisionFP32, Kernels: KernelModeBaseline}
	r1 := ev.EvaluateCandidate(c)
	if r1.Err != "" {
		t.Fatalf("evaluate: %s", r1.Err)
	}
	if !r1.Qualified || r1.CacheHit {
		t.Fatalf("cold evaluation: qualified=%t cacheHit=%t", r1.Qualified, r1.CacheHit)
	}
	if r1.LatencyB1Ns <= 0 || r1.LatencyBNNs <= 0 {
		t.Fatalf("latencies not measured: b1=%v bN=%v", r1.LatencyB1Ns, r1.LatencyBNNs)
	}

	// Warm cache: a fresh evaluator over the same cache must reproduce
	// the measurement bit-for-bit without benching.
	ev2 := &MeasuredEvaluator{
		Trainer:   tinyTrainer(0.95),
		Threshold: 0.9,
		InBands:   4, InSize: 40, WidthScale: 16,
		MaxBatch: 4, Cache: cache,
	}
	r2 := ev2.EvaluateCandidate(c)
	if !r2.CacheHit {
		t.Fatal("second evaluation did not hit the candidate cache")
	}
	if r2.LatencyB1Ns != r1.LatencyB1Ns || r2.LatencyBNNs != r1.LatencyBNNs {
		t.Fatalf("warm latencies differ: (%v,%v) vs (%v,%v)", r2.LatencyB1Ns, r2.LatencyBNNs, r1.LatencyB1Ns, r1.LatencyBNNs)
	}
}

// TestMeasuredEvaluatorConstraint: candidates failing a(n) > A are
// rejected without any latency measurement; the proxy prefilter rejects
// before training.
func TestMeasuredEvaluatorConstraint(t *testing.T) {
	s := tinySpace()
	c := CandidateConfig{Arch: s.instantiate(3, 2, 128), Precision: model.PrecisionFP32, Kernels: KernelModeBaseline}

	trained := 0
	ev := &MeasuredEvaluator{
		Trainer: TrainerFunc(func(cfg model.Config) (*nn.Sequential, float64, error) {
			trained++
			net, err := cfg.Build(rand.New(rand.NewSource(1)))
			return net, 0.5, err
		}),
		Threshold: 0.9,
		InBands:   4, InSize: 40, WidthScale: 16,
	}
	r := ev.EvaluateCandidate(c)
	if r.Qualified || r.LatencyBNNs != 0 {
		t.Fatalf("below-threshold candidate measured anyway: %+v", r)
	}
	if trained != 1 {
		t.Fatalf("trained %d times, want 1", trained)
	}

	// Proxy prefilter: hopeless candidates never train.
	trained = 0
	ev2 := &MeasuredEvaluator{
		Trainer: TrainerFunc(func(cfg model.Config) (*nn.Sequential, float64, error) {
			trained++
			return nil, 0, nil
		}),
		Proxy:     func(model.Config) float64 { return 0.2 },
		Threshold: 0.9,
		InBands:   4, InSize: 40, WidthScale: 16,
	}
	r2 := ev2.EvaluateCandidate(c)
	if !r2.Prefiltered || trained != 0 {
		t.Fatalf("prefilter failed: prefiltered=%t trained=%d", r2.Prefiltered, trained)
	}
}

// TestMeasuredEvaluatorSharedTraining: fp32 and int8 variants of one
// architecture share a single training run.
func TestMeasuredEvaluatorSharedTraining(t *testing.T) {
	s := tinySpace()
	var trained int32
	ev := &MeasuredEvaluator{
		Trainer: TrainerFunc(func(cfg model.Config) (*nn.Sequential, float64, error) {
			atomic.AddInt32(&trained, 1)
			net, err := cfg.Build(rand.New(rand.NewSource(1)))
			return net, 0.95, err
		}),
		Threshold: 0.9,
		InBands:   4, InSize: 40, WidthScale: 16,
		MaxBatch: 2,
	}
	arch := s.instantiate(3, 2, 128)
	ev.EvaluateCandidate(CandidateConfig{Arch: arch, Precision: model.PrecisionFP32, Kernels: KernelModeBaseline})
	ev.EvaluateCandidate(CandidateConfig{Arch: arch, Precision: model.PrecisionInt8, Kernels: KernelModeBaseline})
	if got := atomic.LoadInt32(&trained); got != 1 {
		t.Fatalf("trained %d times for one architecture, want 1", got)
	}
	if ev.TrainedNet(arch.Name) == nil {
		t.Fatal("TrainedNet lost the memoized network")
	}
}
