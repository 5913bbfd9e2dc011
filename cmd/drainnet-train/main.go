// drainnet-train trains one SPP-Net architecture on the synthetic
// watershed dataset and reports test AP, per the paper's §6.1 protocol.
//
// Usage:
//
//	drainnet-train -model sppnet2
//	drainnet-train -notation "C64,3,1-P2,2-C128,3,1-P2,2-C256,3,1-P2,2-SPP5,2,1-F4096"
//	drainnet-train -model original -epochs 30 -scale 8
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"

	"drainnet/internal/experiments"
	"drainnet/internal/model"
	"drainnet/internal/train"
)

func main() {
	name := flag.String("model", "sppnet2", "preset: original, sppnet1, sppnet2, sppnet3")
	notation := flag.String("notation", "", "explicit layer notation (overrides -model)")
	epochs := flag.Int("epochs", 0, "training epochs (0 = config default)")
	scale := flag.Int("scale", 0, "width scale divisor (0 = config default)")
	tiny := flag.Bool("tiny", false, "seconds-scale data config")
	iou := flag.Float64("iou", 0, "AP IoU threshold (0 = config default)")
	save := flag.String("save", "", "write the trained checkpoint to this path")
	verbose := flag.Bool("v", false, "per-epoch loss")
	flag.Parse()

	dc := experiments.FastData()
	if *tiny {
		dc = experiments.TinyData()
	}
	if *epochs > 0 {
		dc.Epochs = *epochs
	}
	if *scale > 0 {
		dc.WidthScale = *scale
	}
	if *iou > 0 {
		dc.IoUThreshold = *iou
	}

	var cfg model.Config
	var err error
	if *notation != "" {
		cfg, err = model.ParseNotation("custom", *notation)
		if err != nil {
			fatal(err)
		}
	} else {
		switch strings.ToLower(*name) {
		case "original":
			cfg = model.OriginalSPPNet()
		case "sppnet1":
			cfg = model.SPPNet1()
		case "sppnet2":
			cfg = model.SPPNet2()
		case "sppnet3":
			cfg = model.SPPNet3()
		default:
			fatal(fmt.Errorf("unknown model %q", *name))
		}
	}

	fmt.Printf("model: %s  (%s)\n", cfg.Name, cfg.Notation())
	trainDS, testDS, err := experiments.BuildData(dc)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("dataset: %d train / %d test samples (%d / %d positives)\n",
		len(trainDS.Samples), len(testDS.Samples), trainDS.Positives(), testDS.Positives())

	scaled := cfg.Scaled(dc.WidthScale).WithInput(4, dc.ClipSize)
	net, err := scaled.Build(rand.New(rand.NewSource(dc.NetSeed)))
	if err != nil {
		fatal(err)
	}
	opt := dc.TrainOptions()
	opt.Verbose = *verbose
	if _, err := train.Fit(net, trainDS, opt); err != nil {
		fatal(err)
	}
	ev := train.Evaluate(net, testDS, dc.IoUThreshold)
	fmt.Printf("test AP@%.1f = %.2f%%   mean IoU = %.3f   (%d positives)\n",
		dc.IoUThreshold, ev.AP*100, ev.MeanIoU, ev.Positives)
	if *save != "" {
		if err := train.SaveFile(*save, net); err != nil {
			fatal(err)
		}
		fmt.Printf("checkpoint written to %s\n", *save)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "drainnet-train:", err)
	os.Exit(1)
}
