package nas

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"drainnet/internal/metrics"
	"drainnet/internal/model"
	"drainnet/internal/nn"
	"drainnet/internal/tensor"
	"drainnet/internal/terrain"
)

// This file closes the paper's optimization loop against the real
// hardware: e(n) becomes the measured steady-state latency of each
// candidate's compiled, autotuned, possibly-int8 executor on the machine
// that will serve, instead of the simulated-GPU price of
// experiments.SimEvaluator. Each candidate goes through model.Compile — the
// same call drainnet-serve makes at startup — and the executor the plan
// hands out is what gets benched, all against one shared model.CostCache,
// so repeated searches (and concurrent search workers) never re-measure
// a conv kernel twice.

// Trainer produces a trained network and its held-out accuracy a(n) for
// one already-scaled architecture. experiments.NASTrainer is the real
// implementation; tests substitute stubs.
type Trainer interface {
	Train(cfg model.Config) (*nn.Sequential, float64, error)
}

// TrainerFunc adapts a plain function to Trainer.
type TrainerFunc func(cfg model.Config) (*nn.Sequential, float64, error)

// Train implements Trainer.
func (f TrainerFunc) Train(cfg model.Config) (*nn.Sequential, float64, error) { return f(cfg) }

// MeasuredEvaluator scores joint candidates with real accuracy and real
// measured latency. It is safe for concurrent use by the parallel search
// executor: trained networks are memoized per architecture, the cost
// cache is concurrency-safe, and every wall-clock measurement section is
// serialized through one bench lock so concurrent workers cannot distort
// each other's timings.
type MeasuredEvaluator struct {
	// Trainer produces the trained network and accuracy per architecture
	// (memoized across candidates sharing one architecture). Required.
	Trainer Trainer
	// Proxy optionally prefilters candidates: architectures whose proxy
	// accuracy falls prefilterMargin or more below Threshold are rejected
	// before paying for real training or measurement.
	Proxy func(arch model.Config) float64
	// Threshold is the accuracy constraint A: only candidates with
	// a(n) > Threshold qualify (and pay for latency measurement).
	Threshold float64
	// WidthScale, InBands and InSize fix the training protocol's scaling
	// and input geometry; candidates are scaled before training and
	// graph building (WidthScale 0 → 1).
	WidthScale      int
	InBands, InSize int
	// Calib is the held-out split behind the int8 and Winograd accuracy
	// gates. With a nil Calib, int8 candidates fall back to fp32 (there
	// is no data to prove the gate) and Winograd demotes inside the
	// autotuner.
	Calib *terrain.Dataset
	// MaxAPDrop is the gate epsilon shared by the quantization and
	// kernel gates.
	MaxAPDrop float64
	// MaxBatch is the large-batch bucket e(n) is tuned and measured
	// at (default 16); batch 1 is always measured too.
	MaxBatch int
	// Cache is the shared measurement cache: operator costs (autotune
	// keys) and candidate-level end-to-end latencies all live in it, so
	// a warm cache makes re-search deterministic and cheap. A fresh cache
	// is created when nil.
	Cache *model.CostCache

	// benchMu serializes every section that takes wall-clock timings
	// (model.Compile's autotune step, the executor bench), so N parallel
	// workers measure as cleanly as a sequential run. Cached
	// candidates skip it entirely, which is what makes warm-cache
	// parallel search scale.
	benchMu sync.Mutex

	netMu sync.Mutex
	nets  map[string]trainedNet
}

// The executor bench: benchWarmup discarded runs, then benchSamples
// timed runs, each stretched above clock granularity to benchMinSampleNs
// by repetition, whose trimmed mean is e(n). A candidate is prefiltered
// only when its proxy accuracy is ≤ Threshold − prefilterMargin.
const (
	benchWarmup      = 2
	benchSamples     = 8
	benchMinSampleNs = 2e5
	prefilterMargin  = 0.02
)

type trainedNet struct {
	net *nn.Sequential
	acc float64
	err error
}

// init fills defaults and the shared cache.
func (e *MeasuredEvaluator) init() {
	e.netMu.Lock()
	if e.nets == nil {
		e.nets = make(map[string]trainedNet)
	}
	if e.Cache == nil {
		e.Cache = model.NewCostCache()
	}
	if e.WidthScale < 1 {
		e.WidthScale = 1
	}
	if e.MaxBatch <= 0 {
		e.MaxBatch = 16
	}
	e.netMu.Unlock()
}

// scaled returns the training-protocol view of one architecture.
func (e *MeasuredEvaluator) scaled(arch model.Config) model.Config {
	return arch.Scaled(e.WidthScale).WithInput(e.InBands, e.InSize)
}

// latencyKey is the cache-key schema for candidate-level measurements:
// the machine's pool shape, the input geometry, the scaled architecture
// notation, the requested precision and kernel mode, and the batch size.
// A warm cache therefore reproduces the exact trial ranking bit-for-bit.
func (e *MeasuredEvaluator) latencyKey(scaled model.Config, c CandidateConfig, batch int) string {
	return fmt.Sprintf("nas|p%d|in%dx%d|ws%d|%s|prec=%s|kern=%s|b%d",
		runtime.GOMAXPROCS(0), e.InBands, e.InSize, scaled.WidthScale,
		scaled.Notation(), c.Precision, c.Kernels, batch)
}

// TrainedNet returns the memoized trained network for an architecture
// name (nil when the candidate never survived to training) — the search
// CLI uses it to persist the winner's checkpoint.
func (e *MeasuredEvaluator) TrainedNet(archName string) *nn.Sequential {
	e.netMu.Lock()
	defer e.netMu.Unlock()
	if t, ok := e.nets[archName]; ok {
		return t.net
	}
	return nil
}

// train memoizes Trainer.Train per architecture: the fp32 and int8
// variants of one architecture share a single training run.
func (e *MeasuredEvaluator) train(scaled model.Config) trainedNet {
	e.netMu.Lock()
	if t, ok := e.nets[scaled.Name]; ok {
		e.netMu.Unlock()
		return t
	}
	e.netMu.Unlock()
	net, acc, err := e.Trainer.Train(scaled)
	t := trainedNet{net: net, acc: acc, err: err}
	e.netMu.Lock()
	// Keep the first finished training when two workers raced on one
	// architecture, so every candidate of that arch sees the same net.
	if prev, ok := e.nets[scaled.Name]; ok {
		t = prev
	} else {
		e.nets[scaled.Name] = t
	}
	e.netMu.Unlock()
	return t
}

// EvaluateCandidate implements CandidateEvaluator: proxy prefilter, real
// training, accuracy constraint, then the measured-efficiency pipeline.
func (e *MeasuredEvaluator) EvaluateCandidate(c CandidateConfig) TrialResult {
	e.init()
	start := time.Now()
	r := TrialResult{Candidate: c, Key: c.Key()}
	defer func() { r.WallMs = float64(time.Since(start)) / 1e6 }()

	scaled := e.scaled(c.Arch)
	if err := scaled.Validate(); err != nil {
		r.Err = err.Error()
		return r
	}

	// 1. Proxy prefilter: clearly-below-threshold candidates never pay
	// for training or measurement.
	if e.Proxy != nil {
		r.ProxyAcc = e.Proxy(c.Arch)
		if r.ProxyAcc <= e.Threshold-prefilterMargin {
			r.Prefiltered = true
			return r
		}
	}

	// 2. Real accuracy (one training per architecture, memoized).
	t := e.train(scaled)
	if t.err != nil {
		r.Err = t.err.Error()
		return r
	}
	r.Accuracy = t.acc
	if !(t.acc > e.Threshold) {
		return r // a(n) ≤ A: rejected, no measurement
	}
	r.Qualified = true

	// 3. Candidate-level cache: a warm cache answers e(n) without
	// touching the bench lock, so warm re-searches rank bit-for-bit
	// identically and parallel workers spend their time on training.
	keyB1 := e.latencyKey(scaled, c, 1)
	keyBN := e.latencyKey(scaled, c, e.MaxBatch)
	if b1, ok1 := e.Cache.Get(keyB1); ok1 {
		if bN, okN := e.Cache.Get(keyBN); okN {
			r.LatencyB1Ns, r.LatencyBNNs, r.CacheHit = b1, bN, true
			return r
		}
	}

	// 4. The serving pipeline, on a clone so concurrent candidates (and
	// the memoized net) never observe each other's kernel retargeting.
	if err := e.measureCandidate(scaled, t.net, &r); err != nil {
		r.Err = err.Error()
		r.Qualified = false
		return r
	}
	e.Cache.Put(keyB1, r.LatencyB1Ns)
	e.Cache.Put(keyBN, r.LatencyBNNs)
	return r
}

// measureCandidate compiles a shared-weight clone of the trained net the
// way serving would (at the candidate's precision and kernel mode),
// benches the plan's executor at batch 1 and MaxBatch, and records the
// latencies and gate outcomes in r.
func (e *MeasuredEvaluator) measureCandidate(scaled model.Config, base *nn.Sequential, r *TrialResult) error {
	clone, err := nn.CloneShared(base)
	if err != nil {
		return err
	}
	c := r.Candidate
	opts := model.CompileOptions{
		MaxAPDrop: e.MaxAPDrop,
		Autotune:  c.Kernels == KernelModeTuned,
		MaxBatch:  e.MaxBatch,
		CostCache: e.Cache,
	}
	// The search's precision dimension goes through the same gate serving
	// does; a failed gate — or no data to prove it — falls back to fp32
	// (the candidate is then measured as its fp32 twin).
	if c.Precision == model.PrecisionInt8 {
		if e.Calib == nil || len(e.Calib.Samples) == 0 {
			r.GateFallback = true
		} else {
			opts.Precision = model.PrecisionAuto
		}
	}

	// Wall-clock measurement starts here; one candidate at a time.
	e.benchMu.Lock()
	defer e.benchMu.Unlock()

	plan, err := model.Compile(scaled, clone.(*nn.Sequential),
		func() (*terrain.Dataset, error) { return e.Calib, nil }, opts)
	if err != nil {
		return err
	}
	if plan.Quant != nil && !plan.Quant.Enabled {
		r.GateFallback = true
	}
	if plan.Kernels != nil {
		r.Demotions = plan.Kernels.Demotions
	}
	exec, _, err := plan.NewReplica()
	if err != nil {
		return err
	}
	r.LatencyB1Ns = e.benchExecutor(exec, 1)
	r.LatencyBNNs = e.benchExecutor(exec, e.MaxBatch)
	return nil
}

// benchExecutor times one executor at a batch size on deterministic
// synthetic input: benchWarmup discarded runs, then the trimmed mean of
// benchSamples runs stretched to benchMinSampleNs (model.TimeTrimmed).
// Caller holds benchMu.
func (e *MeasuredEvaluator) benchExecutor(exec model.Executor, batch int) float64 {
	x := tensor.New(batch, e.InBands, e.InSize, e.InSize)
	tensor.FillPseudo(x.Data(), tensor.PseudoSeed)
	a := tensor.NewArena()
	dets := make([]metrics.Detection, 0, batch)
	return model.TimeTrimmed(func(reps int) {
		for i := 0; i < reps; i++ {
			a.Reset()
			dets = exec.InferDetect(x, a, dets)
		}
	}, benchWarmup, benchSamples, benchMinSampleNs)
}
