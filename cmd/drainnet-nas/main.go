// drainnet-nas runs the resource-aware neural architecture search of the
// paper's Fig 5 — maximize e(n) subject to a(n) > A — through one search
// loop (nas.Search: -strategy random, grid or evolution over -parallel
// workers) with a choice of efficiency oracle:
//
//   - -oracle sim (default): the paper's workflow — the §4.2 architecture
//     space, accuracy filtering, and e(n) the IOS-optimized latency on
//     the simulated GPU at batch 1.
//   - -oracle measured: hardware in the loop — the search space widens to
//     architecture × precision × kernel mode, and e(n) is the measured
//     steady-state latency of each candidate's compiled executor on THIS
//     machine, after accuracy-gated int8 quantization and per-layer
//     kernel autotuning. Workers share one cost cache; a warm
//     -cost-cache makes re-search deterministic (bit-identical ranking)
//     and fast.
//
// Usage:
//
//	drainnet-nas -trials 6 -threshold 0.9                  # sim oracle, real training
//	drainnet-nas -trials 30 -proxy -strategy evolution     # sim oracle, fast proxy
//	drainnet-nas -oracle measured -parallel 4 -cost-cache nas-costs.json \
//	    -trials 12 -threshold 0.35 -tiny -out nas-out      # hardware in the loop
//	drainnet-serve -nas-plan nas-out/plan.json             # serve the winner
//
// -out persists the winning candidate as nas-out/winner.ckpt plus
// nas-out/plan.json (architecture, precision, kernel mode, measured
// latencies, provenance); drainnet-serve -nas-plan round-trips it.
// -cost-cache, -max-batch and -out configure the measured oracle only;
// the sim oracle refuses them (exit 2) rather than ignore them.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"drainnet/internal/experiments"
	"drainnet/internal/model"
	"drainnet/internal/nas"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it returns the exit status (2 for a usage
// error, 1 for a failed search).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("drainnet-nas", flag.ContinueOnError)
	fs.SetOutput(stderr)
	trials := fs.Int("trials", 6, "number of search trials (distinct candidates)")
	threshold := fs.Float64("threshold", 0.90, "accuracy constraint A: keep a(n) > A")
	seed := fs.Int64("seed", 42, "search seed")
	proxy := fs.Bool("proxy", false, "use the fast analytic proxy instead of real training")
	tiny := fs.Bool("tiny", false, "seconds-scale training config")
	oracle := fs.String("oracle", "sim", "efficiency oracle: sim (simulated GPU) or measured (this machine's compiled executors)")
	strategy := fs.String("strategy", "random", "exploration strategy: random, grid or evolution")
	parallel := fs.Int("parallel", 1, "worker goroutines evaluating candidates (sharing one evaluator)")
	costCache := fs.String("cost-cache", "", "measured oracle: cost-cache file shared by operator measurements and candidate latencies (loaded if present, saved after the search)")
	maxBatch := fs.Int("max-batch", 16, "measured oracle: large-batch bucket e(n) is measured at (batch 1 is always measured)")
	out := fs.String("out", "", "measured oracle: directory to persist the winner (plan.json + winner.ckpt, loadable by drainnet-serve -nas-plan)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "drainnet-nas:", err)
		return 1
	}

	dc := experiments.FastData()
	if *tiny {
		dc = experiments.TinyData()
	}
	opts := experiments.NASEvaluatorOptions{Threshold: *threshold, Proxy: *proxy}
	var (
		space    nas.Space
		eval     nas.CandidateEvaluator
		measured *nas.MeasuredEvaluator
		cache    *model.CostCache
		err      error
	)
	switch *oracle {
	case "sim":
		var ignored []string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "cost-cache", "max-batch", "out":
				ignored = append(ignored, "-"+f.Name)
			}
		})
		if len(ignored) > 0 {
			fmt.Fprintf(stderr, "drainnet-nas: -oracle sim would ignore %s (measured oracle only)\n", strings.Join(ignored, ", "))
			return 2
		}
		space = nas.DefaultSpace()
		eval, err = experiments.NewSimEvaluator(dc, opts)
	case "measured":
		cache = model.NewCostCache()
		if *costCache != "" {
			if cache, err = model.LoadCostCache(*costCache); err != nil {
				return fail(err)
			}
		}
		opts.MaxAPDrop, opts.MaxBatch, opts.Cache, opts.Prefilter = 0.02, *maxBatch, cache, !*proxy
		space = nas.DefaultJointSpace()
		measured, err = experiments.NewNASEvaluator(dc, opts)
		eval = measured
	default:
		fmt.Fprintf(stderr, "drainnet-nas: unknown -oracle %q (want sim or measured)\n", *oracle)
		return 2
	}
	if err != nil {
		return fail(err)
	}

	fmt.Fprintf(stdout, "resource-aware NAS (%s oracle): space %d, strategy=%s, %d trials, parallel=%d, a(n) > %.2f\n",
		*oracle, space.JointSize(), *strategy, *trials, *parallel, *threshold)
	res, err := nas.Search(space, eval, nas.SearchOptions{
		Strategy: *strategy, Trials: *trials, Seed: *seed, Parallel: *parallel,
	})
	if err != nil {
		return fail(err)
	}
	fmt.Fprint(stdout, res.Render())
	if *costCache != "" {
		if err := cache.Save(*costCache); err != nil {
			return fail(fmt.Errorf("cost cache not saved: %w", err))
		}
		fmt.Fprintf(stdout, "cost cache: %d entries → %s\n", cache.Len(), *costCache)
	}
	w := res.Winner()
	if w == nil {
		return fail(fmt.Errorf("no candidate satisfied a(n) > %.2f", *threshold))
	}
	if measured == nil {
		fmt.Fprintf(stdout, "winner: %s (a=%.4f, IOS latency %.3f ms at batch 1)\n", w.Key, w.Accuracy, w.LatencyB1Ns/1e6)
		return 0
	}
	fmt.Fprintf(stdout, "winner: %s (a=%.4f, b1 %.3f ms, b%d %.3f ms)\n",
		w.Key, w.Accuracy, w.LatencyB1Ns/1e6, *maxBatch, w.LatencyBNNs/1e6)
	if *out != "" {
		arch := w.Candidate.Arch.Scaled(dc.WidthScale).WithInput(4, dc.ClipSize)
		plan, err := nas.SaveWinner(*out, *w, arch, measured.TrainedNet(arch.Name), *threshold, *maxBatch)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "winner persisted: %s/plan.json + %s/%s (serve with: drainnet-serve -nas-plan %s/plan.json)\n",
			*out, *out, plan.Checkpoint, *out)
	}
	return 0
}
