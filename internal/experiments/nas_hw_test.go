package experiments

import (
	"testing"

	"drainnet/internal/model"
	"drainnet/internal/nas"
	"drainnet/internal/tensor"
)

// microData is a sub-second training config for trainer-behavior tests.
func microData() DataConfig {
	d := TinyData()
	d.Epochs = 1
	return d
}

// TestNASTrainerDoesNotMutateDataset: Fit shuffles its split in place,
// so the trainer must hand each call a private view — otherwise parallel
// workers race on sample order and accuracy becomes order-dependent.
func TestNASTrainerDoesNotMutateDataset(t *testing.T) {
	dc := microData()
	trainDS, testDS, err := BuildData(dc)
	if err != nil {
		t.Fatal(err)
	}
	before := make([]*tensor.Tensor, len(trainDS.Samples))
	for i, s := range trainDS.Samples {
		before[i] = s.Image
	}
	scaled := model.SPPNet2().Scaled(dc.WidthScale).WithInput(4, dc.ClipSize)
	if _, _, err := NASTrainer(dc, trainDS, testDS).Train(scaled); err != nil {
		t.Fatal(err)
	}
	for i, s := range trainDS.Samples {
		if s.Image != before[i] {
			t.Fatalf("trainer reordered the caller's dataset at %d", i)
		}
	}
}

// TestNASProxyEvaluator: the analytic proxy follows the paper's trends
// (receptive field and capacity help, oversize kernels hurt).
func TestNASProxyEvaluator(t *testing.T) {
	small := NASProxy(model.OriginalSPPNet())
	if small <= 0.85 || small >= 1 {
		t.Fatalf("proxy out of range: %v", small)
	}
}

// TestNewNASEvaluatorProxyPipeline: the proxy-trainer evaluator runs the
// full measured pipeline (build, schedule, compile, bench) in well under
// a second per candidate.
func TestNewNASEvaluatorProxyPipeline(t *testing.T) {
	dc := TinyData()
	ev, err := NewNASEvaluator(dc, NASEvaluatorOptions{Threshold: 0.5, MaxAPDrop: 0.02, MaxBatch: 4, Proxy: true})
	if err != nil {
		t.Fatal(err)
	}
	space := nas.DefaultSpace()
	c := nas.CandidateConfig{Arch: space.Base, Precision: model.PrecisionFP32, Kernels: nas.KernelModeBaseline}
	c.Arch = model.SPPNet2()
	r := ev.EvaluateCandidate(c)
	if r.Err != "" {
		t.Fatalf("evaluate: %s", r.Err)
	}
	if !r.Qualified || r.LatencyB1Ns <= 0 || r.LatencyBNNs <= 0 {
		t.Fatalf("proxy pipeline did not measure: %+v", r)
	}
}

// TestNASWarmParallelSearchKeepsColdWinner: a cold sequential measured
// search and a warm parallel one over the same cost cache crown the
// same winner with bit-identical latencies. The warm run answers every
// candidate from the cache the cold run filled, so neither the worker
// count nor the host's timing noise can move the ranking.
func TestNASWarmParallelSearchKeepsColdWinner(t *testing.T) {
	dc := TinyData()
	cache := model.NewCostCache()
	search := func(parallel int) *nas.SearchResult {
		t.Helper()
		ev, err := NewNASEvaluator(dc, NASEvaluatorOptions{Threshold: 0.3, MaxAPDrop: 0.02, MaxBatch: 4, Cache: cache, Proxy: true})
		if err != nil {
			t.Fatal(err)
		}
		res, err := nas.Search(nas.DefaultJointSpace(), ev, nas.SearchOptions{Strategy: "random", Trials: 6, Seed: 42, Parallel: parallel})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	cold := search(1)
	warm := search(4)
	wc, ww := cold.Winner(), warm.Winner()
	if wc == nil || ww == nil {
		t.Fatalf("no qualified winner: cold %v, warm %v", wc, ww)
	}
	if ww.Key != wc.Key || ww.LatencyB1Ns != wc.LatencyB1Ns || ww.LatencyBNNs != wc.LatencyBNNs {
		t.Fatalf("warm parallel winner %s (b1 %v, bN %v), cold sequential %s (b1 %v, bN %v)",
			ww.Key, ww.LatencyB1Ns, ww.LatencyBNNs, wc.Key, wc.LatencyB1Ns, wc.LatencyBNNs)
	}
	if warm.CacheHits != len(warm.Trials) {
		t.Fatalf("warm run hit the cache %d times in %d trials", warm.CacheHits, len(warm.Trials))
	}
}
