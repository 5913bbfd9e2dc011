// drainnet-ios optimizes a model's execution schedule with the IOS
// dynamic program on the simulated GPU and reports sequential vs
// optimized simulated latency, like the paper's IOS_Model.py artifact
// (Table 2, Fig 6).
//
// Usage:
//
//	drainnet-ios -model sppnet2 -batch 1
//	drainnet-ios -model sppnet2 -batches 1,2,4,8,16,32,64
//	drainnet-ios -model original -show-schedule
//	drainnet-ios -scale 8 -emit-schedule sched.json
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"drainnet/internal/experiments"
	"drainnet/internal/graph"
	"drainnet/internal/ios"
	"drainnet/internal/model"
)

func main() {
	name := flag.String("model", "sppnet2", "preset: original, sppnet1, sppnet2, sppnet3")
	notation := flag.String("notation", "", "explicit layer notation (overrides -model)")
	batch := flag.Int("batch", 1, "batch size")
	batches := flag.String("batches", "", "comma-separated batch sweep (overrides -batch)")
	show := flag.Bool("show-schedule", false, "print the optimized stage/group structure")
	scale := flag.Int("scale", 1, "width scale divisor (1 = paper widths; larger = thinner model)")
	emit := flag.String("emit-schedule", "", "write the optimized schedule as JSON to this file (sweeps append .b<batch>)")
	flag.Parse()

	var cfg model.Config
	var err error
	if *notation != "" {
		cfg, err = model.ParseNotation("custom", *notation)
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
			err = fmt.Errorf("unknown model %q", *name)
		}
	}
	if err != nil {
		fatal(err)
	}
	cfg = cfg.Scaled(*scale)
	g, err := cfg.BuildScaledGraph()
	if err != nil {
		fatal(err)
	}

	var sweep []int
	if *batches != "" {
		for _, f := range strings.Split(*batches, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || v < 1 {
				fatal(fmt.Errorf("bad batch %q", f))
			}
			sweep = append(sweep, v)
		}
	} else {
		sweep = []int{*batch}
	}

	emitFile := func(sched *ios.Schedule, b int) {
		if *emit == "" {
			return
		}
		path := *emit
		if len(sweep) > 1 {
			path = fmt.Sprintf("%s.b%d", path, b)
		}
		f, err := os.Create(path)
		if err != nil {
			fatal(err)
		}
		if err := ios.SaveSchedule(f, sched); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", path)
	}

	runSim(cfg, g, sweep, *show, emitFile)
}

// runSim prices and replays schedules on the simulated GPU (the paper's
// offline study).
func runSim(cfg model.Config, g *graph.Graph, sweep []int, show bool, emit func(*ios.Schedule, int)) {
	dev := experiments.Device()
	rt := ios.NewRuntime(dev)
	oracle := ios.NewSimOracle(dev)
	fmt.Printf("model: %s  (%s, scale %d)\ndevice: %s\n", cfg.Name, cfg.Notation(), cfg.WidthScale, dev.Name)
	fmt.Printf("%6s %14s %14s %9s %16s\n", "batch", "seq ms", "IOS ms", "gain", "IOS µs/image")
	for _, b := range sweep {
		seq := rt.Measure(g, ios.SequentialSchedule(g), b)
		sched, err := ios.Optimize(g, oracle, b)
		if err != nil {
			fatal(err)
		}
		opt := rt.Measure(g, sched, b)
		fmt.Printf("%6d %14.3f %14.3f %8.2fx %16.1f\n",
			b, seq.LatencyNs/1e6, opt.LatencyNs/1e6, seq.LatencyNs/opt.LatencyNs, opt.EfficiencyNsPerImage/1e3)
		if show {
			fmt.Print(sched.String())
		}
		emit(sched, b)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "drainnet-ios:", err)
	os.Exit(1)
}
