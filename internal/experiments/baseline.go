package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"drainnet/internal/baseline"
	"drainnet/internal/metrics"
	"drainnet/internal/model"
	"drainnet/internal/train"
)

// BaselineResult compares the SPP-Net detector against the two-stage
// proposal baseline (the §8.1 Faster-R-CNN stand-in, which the paper
// reports at 0.882 accuracy and 0.668 IoU).
type BaselineResult struct {
	SPPNetAP       float64
	SPPNetAccuracy float64
	SPPNetIoU      float64

	BaselineAccuracy  float64
	BaselineIoU       float64
	ProposalsPerImage int
}

// Baseline trains both detectors on the same data and scores them.
func Baseline(dc DataConfig) (*BaselineResult, error) {
	trainDS, testDS, err := BuildData(dc)
	if err != nil {
		return nil, err
	}
	res := &BaselineResult{}

	// SPP-Net (the paper's chosen #2 architecture).
	cfg := model.SPPNet2().Scaled(dc.WidthScale).WithInput(4, dc.ClipSize)
	net, err := cfg.Build(rand.New(rand.NewSource(dc.NetSeed)))
	if err != nil {
		return nil, err
	}
	if _, err := train.Fit(net, trainDS, dc.TrainOptions()); err != nil {
		return nil, err
	}
	ev := train.Evaluate(net, testDS, dc.IoUThreshold)
	res.SPPNetAP = ev.AP
	res.SPPNetIoU = ev.MeanIoU
	dets, gts := train.Predictions(net, testDS)
	res.SPPNetAccuracy = metrics.Accuracy(dets, gts, 0.7)

	// Two-stage baseline.
	bl, err := baseline.New(rand.New(rand.NewSource(dc.NetSeed+1)), baseline.DefaultConfig())
	if err != nil {
		return nil, err
	}
	bopt := baseline.DefaultTrainOptions()
	bopt.Epochs = dc.Epochs / 2
	if bopt.Epochs < 4 {
		bopt.Epochs = 4
	}
	if err := bl.Train(trainDS, bopt); err != nil {
		return nil, err
	}
	res.BaselineAccuracy, res.BaselineIoU = bl.Evaluate(testDS)
	res.ProposalsPerImage = bl.ProposalsPerImage(dc.ClipSize)
	return res, nil
}

// Render writes the comparison.
func (r *BaselineResult) Render() string {
	var b strings.Builder
	b.WriteString("§8.1 — SPP-Net vs two-stage proposal baseline (Faster R-CNN stand-in)\n")
	fmt.Fprintf(&b, "%-28s %10s %10s\n", "detector", "accuracy", "mean IoU")
	fmt.Fprintf(&b, "%-28s %9.1f%% %10.3f\n", "SPP-Net #2 (one-shot)", r.SPPNetAccuracy*100, r.SPPNetIoU)
	fmt.Fprintf(&b, "%-28s %9.1f%% %10.3f\n", "two-stage proposals", r.BaselineAccuracy*100, r.BaselineIoU)
	fmt.Fprintf(&b, "baseline stage-1 proposals per image: %d (paper reference: acc 0.882, IoU 0.668)\n", r.ProposalsPerImage)
	return b.String()
}
