package experiments

import (
	"math/rand"

	"drainnet/internal/model"
	"drainnet/internal/nas"
	"drainnet/internal/nn"
	"drainnet/internal/terrain"
)

// This file wires the hardware-in-the-loop NAS (drainnet-nas -oracle
// measured) to the experiment data protocol: e(n) is the measured
// steady-state latency of each candidate's compiled executor on this
// machine (after accuracy-gated quantization and kernel autotuning),
// instead of the simulated-GPU price the sim oracle charges.

// NASProxy is the fast analytic accuracy evaluator: accuracy rises with
// receptive field, SPP depth and capacity, saturating — used as the
// prefilter in measured search and as the whole evaluator in -proxy mode.
func NASProxy() nas.Evaluator {
	return nas.FunctionalEvaluator(func(cfg model.Config) (float64, error) {
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
		return acc, nil
	})
}

// NASTrainer adapts the shared training protocol to the measured
// evaluator: configs arrive already scaled. Fit shuffles its training
// split in place, so each call gets a private view of the sample slice —
// parallel workers never race on sample order, and every architecture
// trains from the identical initial order no matter how many candidates
// ran before it (accuracy stays deterministic at any parallelism).
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
	proxy := NASProxy()
	return nas.TrainerFunc(func(scaled model.Config) (*nn.Sequential, float64, error) {
		net, err := scaled.Build(rand.New(rand.NewSource(dc.NetSeed)))
		if err != nil {
			return nil, 0, err
		}
		acc, err := proxy.Evaluate(scaled)
		return net, acc, err
	})
}

// NASEvaluatorOptions assembles a MeasuredEvaluator over the shared
// training protocol.
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

// NewNASEvaluator wires the measured evaluator to the experiment data
// protocol: dataset, calibration split, input geometry and width scale.
func NewNASEvaluator(dc DataConfig, opts NASEvaluatorOptions) (*nas.MeasuredEvaluator, error) {
	var trainer nas.Trainer
	var calib *terrain.Dataset
	if opts.Proxy {
		trainer = NASProxyTrainer(dc)
	} else {
		trainDS, testDS, err := BuildData(dc)
		if err != nil {
			return nil, err
		}
		trainer = NASTrainer(dc, trainDS, testDS)
		calib = testDS
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
		ev.Proxy = NASProxy()
	}
	return ev, nil
}
