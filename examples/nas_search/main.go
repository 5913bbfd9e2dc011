// NAS search: the paper's Fig 5 pipeline on real (small-scale) training —
// random multi-trial search over the §4.2 space, an accuracy constraint,
// and IOS-based efficiency selection. Expect a few minutes.
//
//	go run ./examples/nas_search
package main

import (
	"fmt"
	"log"
	"math/rand"

	"drainnet"
)

func main() {
	// Shared dataset for every trial.
	wc := drainnet.DefaultWatershedConfig()
	wc.Rows, wc.Cols = 256, 256
	wc.RoadSpacing = 72
	wc.StreamThreshold = 120
	w, err := drainnet.GenerateWatershed(wc)
	if err != nil {
		log.Fatal(err)
	}
	img := drainnet.RenderOrthophoto(w)
	cc := drainnet.DefaultClipConfig()
	cc.Size = 40
	cc.JitterFrac = 0.08
	cc.ClipsPerCrossing = 2
	ds, err := drainnet.BuildDataset(w, img, cc)
	if err != nil {
		log.Fatal(err)
	}
	trainDS, testDS := ds.SplitByCrossing(0.8, 5)

	// Accuracy side: train the sampled architecture (already scaled to
	// width/16 and 40-pixel clips by the evaluator) briefly and score
	// test AP.
	trainer := drainnet.CandidateTrainerFunc(func(cfg drainnet.ModelConfig) (*drainnet.Network, float64, error) {
		net, err := drainnet.BuildModel(cfg, rand.New(rand.NewSource(7)))
		if err != nil {
			return nil, 0, err
		}
		opt := drainnet.PaperTrainOptions()
		opt.Epochs = 8
		opt.BatchSize = 10
		opt.BoxWeight = 5
		opt.LRStepEpoch = 6
		opt.LRStepGamma = 0.1
		if _, err := drainnet.Fit(net, trainDS, opt); err != nil {
			return nil, 0, err
		}
		return net, drainnet.EvaluateDetector(net, testDS, 0.3).AP, nil
	})

	// The paper's Fig 5 oracle (§5.4): keep a(n) > A, rank by the
	// IOS-optimized latency on the simulated A5500 at batch 1.
	const threshold = 0.60
	eval := &drainnet.SimEvaluator{Trainer: trainer, Threshold: threshold, WidthScale: 16, InSize: cc.Size}

	// Multi-trial random search (paper §4.2's strategy) over 5 distinct
	// architectures.
	res, err := drainnet.Search(drainnet.DefaultSearchSpace(), eval, drainnet.SearchOptions{Strategy: "random", Trials: 5, Seed: 42})
	if err != nil {
		log.Fatal(err)
	}
	for _, t := range res.Trials {
		fmt.Printf("trial %-28s AP %.1f%%\n", t.Candidate.Arch.Name, t.Accuracy*100)
	}
	best := res.Winner()
	if best == nil {
		log.Fatalf("no trial satisfied AP > %.0f%%", threshold*100)
	}
	fmt.Printf("\nselected: %s\n", best.Candidate.Arch.Name)
	fmt.Printf("  accuracy   %.1f%% (constraint: > %.0f%%)\n", best.Accuracy*100, threshold*100)
	fmt.Printf("  latency    %.3f ms IOS-optimized\n", best.LatencyB1Ns/1e6)
	fmt.Printf("  %d of %d trials qualified\n", res.Qualified, len(res.Trials))
}
