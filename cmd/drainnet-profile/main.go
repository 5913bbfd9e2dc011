// drainnet-profile produces an nsys-style report for one profiled
// inference on the simulated GPU: memory-operation timing, CUDA API time
// shares, and the kernel-class breakdown (the paper's §7 analysis).
//
// Usage:
//
//	drainnet-profile -model sppnet2 -batch 16
//	drainnet-profile -model sppnet2 -batch 64 -trace   # raw event trace
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"drainnet/internal/experiments"
	"drainnet/internal/gpu"
	"drainnet/internal/ios"
	"drainnet/internal/model"
	"drainnet/internal/profiler"
)

func main() {
	name := flag.String("model", "sppnet2", "preset: original, sppnet1, sppnet2, sppnet3")
	batch := flag.Int("batch", 1, "batch size")
	trace := flag.Bool("trace", false, "dump the raw event timeline")
	chrome := flag.String("chrome", "", "write a Chrome trace-event JSON file (open at ui.perfetto.dev)")
	stats := flag.Bool("stats", false, "print per-kernel statistics (nsys --stats style)")
	seq := flag.Bool("sequential", false, "profile the sequential schedule instead of IOS")
	flag.Parse()

	var cfg model.Config
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
	g, err := cfg.BuildGraph()
	if err != nil {
		fatal(err)
	}
	dev := experiments.Device()
	var sched *ios.Schedule
	if *seq {
		sched = ios.SequentialSchedule(g)
	} else {
		sched, err = ios.Optimize(g, ios.NewSimOracle(dev), *batch)
		if err != nil {
			fatal(err)
		}
	}
	p := profiler.Run(dev, g, sched, *batch)
	fmt.Printf("model: %s   schedule: %s   device: %s\n", cfg.Name, sched.Name, dev.Name)
	fmt.Print(p.Render())
	if *stats {
		fmt.Print(profiler.KernelStats(p.Events).Render())
	}
	if *trace {
		fmt.Println("event timeline:")
		for _, e := range p.Events {
			fmt.Printf("  %12.0f ns  +%10.0f ns  %-22s %-10s stream=%d\n",
				e.StartNs, e.DurNs, e.Kind, e.Name, e.Stream)
		}
	}
	if *chrome != "" {
		f, err := os.Create(*chrome)
		if err != nil {
			fatal(err)
		}
		if err := gpu.WriteChromeTrace(f, p.Events); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote Chrome trace to %s\n", *chrome)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "drainnet-profile:", err)
	os.Exit(1)
}
