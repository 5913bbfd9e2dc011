package experiments

import (
	"math/rand"
	"time"

	"drainnet/internal/model"
	"drainnet/internal/nas"
	"drainnet/internal/nn"
	"drainnet/internal/terrain"
)

// This file wires both NAS oracles to the experiment data protocol. They
// share nas.Search and the accuracy side (NASTrainer or the analytic
// NASProxyTrainer) and differ only in e(n): SimEvaluator prices the
// paper's simulated-GPU IOS latency (drainnet-nas -oracle sim), the
// nas.MeasuredEvaluator the steady-state latency of each candidate's
// compiled executor on this machine, after accuracy-gated quantization
// and kernel autotuning (-oracle measured).

// NASProxy is the fast analytic accuracy estimate: accuracy rises with
// receptive field, SPP depth and capacity, saturating — used as the
// prefilter in measured search and as the whole trainer in -proxy mode.
func NASProxy(cfg model.Config) float64 {
	acc := 0.90
	if cfg.Convs[0].Kernel >= 3 {
		acc += 0.02
	}
	if cfg.Convs[0].Kernel >= 7 {
		acc -= 0.01 // oversize first kernel hurts on small clips
	}
	acc += 0.01 * float64(len(cfg.SPPLevels)-1)
	if cfg.FCWidth >= 1024 {
		acc += 0.02
	}
	if cfg.FCWidth >= 8192 {
		acc -= 0.005 // slight overfit
	}
	return acc
}

// NASTrainer adapts the shared training protocol to the NAS evaluators:
// configs arrive already scaled. Fit shuffles its training split in
// place, so each call gets a private view of the sample slice — parallel
// workers never race on sample order, and every architecture trains
// from the identical initial order no matter how many candidates ran
// before it (accuracy stays deterministic at any parallelism).
func NASTrainer(dc DataConfig, trainDS, testDS *terrain.Dataset) nas.Trainer {
	return nas.TrainerFunc(func(scaled model.Config) (*nn.Sequential, float64, error) {
		local := *trainDS
		local.Samples = append([]terrain.Sample(nil), trainDS.Samples...)
		return TrainNet(scaled, dc, &local, testDS)
	})
}

// NASProxyTrainer builds untrained networks and scores them with the
// analytic proxy — the seconds-scale stand-in for demos where real
// per-candidate training is too slow.
func NASProxyTrainer(dc DataConfig) nas.Trainer {
	return nas.TrainerFunc(func(scaled model.Config) (*nn.Sequential, float64, error) {
		net, err := scaled.Build(rand.New(rand.NewSource(dc.NetSeed)))
		if err != nil {
			return nil, 0, err
		}
		return net, NASProxy(scaled), nil
	})
}

// SimEvaluator is the paper's Fig 5 oracle as a search evaluator: a(n)
// is the Trainer's accuracy for the scaled architecture, only
// a(n) > Threshold is priced, and e(n) is the unscaled architecture's
// IOS-optimized latency on Device() at batch 1, reported as both
// LatencyB1Ns and LatencyBNNs.
type SimEvaluator struct {
	// Trainer scores one scaled architecture (NASTrainer or
	// NASProxyTrainer).
	Trainer nas.Trainer
	// Threshold is the accuracy constraint A.
	Threshold float64
	// WidthScale and InSize are the training protocol's width scale and
	// clip size (4-band input).
	WidthScale, InSize int
}

// EvaluateCandidate implements nas.CandidateEvaluator.
func (e *SimEvaluator) EvaluateCandidate(c nas.CandidateConfig) (r nas.TrialResult) {
	start := time.Now()
	r = nas.TrialResult{Candidate: c, Key: c.Key()}
	defer func() { r.WallMs = float64(time.Since(start)) / 1e6 }()
	_, acc, err := e.Trainer.Train(c.Arch.Scaled(e.WidthScale).WithInput(terrain.NumBands, e.InSize))
	if err != nil {
		r.Err = err.Error()
		return r
	}
	r.Accuracy = acc
	if !(acc > e.Threshold) {
		return r
	}
	lat, err := iosLatency(c.Arch, Device(), 1)
	if err != nil {
		r.Err = err.Error()
		return r
	}
	r.Qualified, r.LatencyB1Ns, r.LatencyBNNs = true, lat, lat
	return r
}

// NASEvaluatorOptions assembles a NAS evaluator over the shared training
// protocol. The sim oracle reads only Threshold and Proxy.
type NASEvaluatorOptions struct {
	Threshold float64
	MaxAPDrop float64
	MaxBatch  int
	Cache     *model.CostCache
	// Proxy switches the trainer to the analytic proxy (no real
	// training); Prefilter enables the proxy accuracy prefilter in front
	// of real training.
	Proxy     bool
	Prefilter bool
}

// nasTrainer picks the trainer for opts and, with real training, the
// held-out split it scores on.
func nasTrainer(dc DataConfig, opts NASEvaluatorOptions) (nas.Trainer, *terrain.Dataset, error) {
	if opts.Proxy {
		return NASProxyTrainer(dc), nil, nil
	}
	trainDS, testDS, err := BuildData(dc)
	if err != nil {
		return nil, nil, err
	}
	return NASTrainer(dc, trainDS, testDS), testDS, nil
}

// NewSimEvaluator wires the sim oracle to the experiment data protocol.
func NewSimEvaluator(dc DataConfig, opts NASEvaluatorOptions) (*SimEvaluator, error) {
	trainer, _, err := nasTrainer(dc, opts)
	if err != nil {
		return nil, err
	}
	return &SimEvaluator{Trainer: trainer, Threshold: opts.Threshold, WidthScale: dc.WidthScale, InSize: dc.ClipSize}, nil
}

// NewNASEvaluator wires the measured evaluator to the experiment data
// protocol: dataset, calibration split, input geometry and width scale.
func NewNASEvaluator(dc DataConfig, opts NASEvaluatorOptions) (*nas.MeasuredEvaluator, error) {
	trainer, calib, err := nasTrainer(dc, opts)
	if err != nil {
		return nil, err
	}
	ev := &nas.MeasuredEvaluator{
		Trainer:    trainer,
		Threshold:  opts.Threshold,
		WidthScale: dc.WidthScale,
		InBands:    terrain.NumBands,
		InSize:     dc.ClipSize,
		Calib:      calib,
		MaxAPDrop:  opts.MaxAPDrop,
		MaxBatch:   opts.MaxBatch,
		Cache:      opts.Cache,
	}
	if opts.Prefilter {
		ev.Proxy = NASProxy
	}
	return ev, nil
}
