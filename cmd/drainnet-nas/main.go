// drainnet-nas runs the resource-aware neural architecture search of the
// paper's Fig 5 — maximize e(n) subject to a(n) > A — with a choice of
// efficiency oracle:
//
//   - -oracle sim (default): the paper's workflow — random search over
//     the §4.2 architecture space, accuracy filtering, and IOS-based
//     efficiency selection on the simulated GPU.
//   - -oracle measured: hardware in the loop — the search space widens to
//     architecture × precision × kernel mode, and e(n) is the measured
//     steady-state latency of each candidate's compiled executor on THIS
//     machine, after accuracy-gated int8 quantization and per-layer
//     kernel autotuning. Candidates evaluate across -parallel
//     workers sharing one cost cache; a warm -cost-cache makes re-search
//     deterministic (bit-identical ranking) and fast.
//
// Usage:
//
//	drainnet-nas -trials 6 -threshold 0.9                  # sim oracle, real training
//	drainnet-nas -trials 30 -proxy                         # sim oracle, fast proxy
//	drainnet-nas -oracle measured -parallel 4 -cost-cache nas-costs.json \
//	    -trials 12 -threshold 0.35 -tiny -out nas-out      # hardware in the loop
//	drainnet-serve -nas-plan nas-out/plan.json             # serve the winner
//
// -out persists the winning candidate as nas-out/winner.ckpt plus
// nas-out/plan.json (architecture, precision, kernel mode, measured
// latencies, provenance); drainnet-serve -nas-plan round-trips it.
package main

import (
	"flag"
	"fmt"
	"os"

	"drainnet/internal/experiments"
	"drainnet/internal/model"
	"drainnet/internal/nas"
)

func main() {
	trials := flag.Int("trials", 6, "number of search trials (distinct candidates)")
	threshold := flag.Float64("threshold", 0.90, "accuracy constraint A: keep a(n) > A")
	seed := flag.Int64("seed", 42, "search seed")
	proxy := flag.Bool("proxy", false, "use the fast analytic proxy instead of real training")
	tiny := flag.Bool("tiny", false, "seconds-scale training config")
	oracle := flag.String("oracle", "sim", "efficiency oracle: sim (simulated GPU) or measured (this machine's compiled executors)")
	strategy := flag.String("strategy", "random", "measured-oracle exploration strategy: random, grid or evolution")
	parallel := flag.Int("parallel", 1, "measured-oracle worker goroutines sharing one cost cache")
	costCache := flag.String("cost-cache", "", "cost-cache file shared by operator measurements and candidate latencies (loaded if present, saved after the search)")
	maxBatch := flag.Int("max-batch", 16, "large-batch bucket e(n) is measured at (batch 1 is always measured)")
	out := flag.String("out", "", "directory to persist the winner (plan.json + winner.ckpt, loadable by drainnet-serve -nas-plan)")
	flag.Parse()

	dc := experiments.FastData()
	if *tiny {
		dc = experiments.TinyData()
	}

	switch *oracle {
	case "sim":
		if *proxy {
			runSimProxy(*trials, *threshold, *seed)
			return
		}
		fmt.Printf("resource-aware NAS (sim oracle): %d trials, accuracy constraint a(n) > %.2f\n", *trials, *threshold)
		res, err := experiments.NASSearch(dc, *trials, *threshold, *seed)
		if res != nil {
			fmt.Print(res.Render())
		}
		if err != nil {
			fatal(err)
		}
	case "measured":
		runMeasured(dc, measuredOptions{
			trials: *trials, threshold: *threshold, seed: *seed,
			strategy: *strategy, parallel: *parallel, maxBatch: *maxBatch,
			costCache: *costCache, out: *out, proxy: *proxy,
		})
	default:
		fatal(fmt.Errorf("unknown -oracle %q (want sim or measured)", *oracle))
	}
}

type measuredOptions struct {
	trials    int
	threshold float64
	seed      int64
	strategy  string
	parallel  int
	maxBatch  int
	costCache string
	out       string
	proxy     bool
}

func runMeasured(dc experiments.DataConfig, mo measuredOptions) {
	cache := model.NewCostCache()
	if mo.costCache != "" {
		var err error
		if cache, err = model.LoadCostCache(mo.costCache); err != nil {
			fatal(err)
		}
	}
	ev, err := experiments.NewNASEvaluator(dc, experiments.NASEvaluatorOptions{
		Threshold: mo.threshold, MaxAPDrop: 0.02, MaxBatch: mo.maxBatch,
		Cache: cache, Proxy: mo.proxy, Prefilter: !mo.proxy,
	})
	if err != nil {
		fatal(err)
	}
	space := nas.DefaultJointSpace()
	fmt.Printf("hardware-in-the-loop NAS: joint space %d (arch × precision × kernels), strategy=%s, %d trials, parallel=%d, a(n) > %.2f\n",
		space.JointSize(), mo.strategy, mo.trials, mo.parallel, mo.threshold)
	res, err := nas.Search(space, ev, nas.SearchOptions{
		Strategy: mo.strategy, Trials: mo.trials, Seed: mo.seed, Parallel: mo.parallel,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Print(res.Render())
	if mo.costCache != "" {
		if err := cache.Save(mo.costCache); err != nil {
			fatal(fmt.Errorf("cost cache not saved: %w", err))
		}
		fmt.Printf("cost cache: %d entries → %s\n", cache.Len(), mo.costCache)
	}
	w := res.Winner()
	if w == nil {
		fatal(fmt.Errorf("no candidate satisfied a(n) > %.2f", mo.threshold))
	}
	fmt.Printf("winner: %s (a=%.4f, b1 %.3f ms, b%d %.3f ms)\n",
		w.Key, w.Accuracy, w.LatencyB1Ns/1e6, mo.maxBatch, w.LatencyBNNs/1e6)
	if mo.out != "" {
		arch := w.Candidate.Arch.Scaled(dc.WidthScale).WithInput(4, dc.ClipSize)
		net := ev.TrainedNet(arch.Name)
		plan, err := nas.SaveWinner(mo.out, *w, arch, net, mo.threshold, mo.maxBatch)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("winner persisted: %s/plan.json + %s/%s (serve with: drainnet-serve -nas-plan %s/plan.json)\n",
			mo.out, mo.out, plan.Checkpoint, mo.out)
	}
}

// runSimProxy explores the space with the cheap analytic evaluator: the
// fully-simulated pipeline that keeps the paper's workflow runnable in
// seconds.
func runSimProxy(trials int, threshold float64, seed int64) {
	space := nas.DefaultSpace()
	ts := nas.RandomSearch(space, experiments.NASProxy(), trials, seed)
	sel, err := nas.ResourceAware(ts, experiments.IOSMeasurer{Dev: experiments.Device()}, threshold, 1)
	fmt.Printf("proxy NAS: %d trials, constraint a(n) > %.2f\n", len(ts), threshold)
	for _, t := range ts {
		fmt.Printf("  %-28s proxy-acc %.2f%%\n", t.Config.Name, t.Accuracy*100)
	}
	if err != nil {
		fatal(err)
	}
	best := sel.Best()
	fmt.Printf("selected: %s (proxy-acc %.2f%%, IOS latency %.3f ms)\n",
		best.Config.Name, best.Accuracy*100, best.OptLatencyNs/1e6)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "drainnet-nas:", err)
	os.Exit(1)
}
