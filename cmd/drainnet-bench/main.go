// drainnet-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	drainnet-bench -exp table2                # one study, as a plain table
//	drainnet-bench -exp all > RESULTS.md      # every study except training, as markdown
//	drainnet-bench -exp all -train > RESULTS.md   # everything, including Table 1 and the baseline
//	drainnet-bench -exp table1 -tiny          # seconds-scale training config
//
// Studies: table1, table2, fig6, fig7, fig8, table3, ablation-sched,
// ablation-spp, ablation-conv, throughput, census, multigpu, baseline.
//
// -exp all renders each study as a "## title" heading over a fenced
// block and exits 1 at the first study that fails. Serving performance
// is not measured here: that is the benchmark harness (BENCHMARK.json,
// benchmark/README.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"drainnet/internal/experiments"
)

// renderer is what every study returns.
type renderer interface{ Render() string }

// studies is every result drainnet-bench renders, in -exp all order.
// train marks the studies that train models (minutes): -exp all runs
// them only with -train, on the -tiny or the default data config.
var studies = []struct {
	id, title string
	train     bool
	fn        func(dc experiments.DataConfig) (renderer, error)
}{
	{"table1", "Table 1 — average precision", true,
		func(dc experiments.DataConfig) (renderer, error) { return experiments.Table1(dc) }},
	{"table2", "Table 2 — sequential vs IOS latency", false,
		func(experiments.DataConfig) (renderer, error) { return experiments.Table2() }},
	{"fig6", "Figure 6 — batch-size efficiency", false,
		func(experiments.DataConfig) (renderer, error) { return experiments.Figure6() }},
	{"fig7", "Figure 7 — GPU memops timing", false,
		func(experiments.DataConfig) (renderer, error) { return experiments.Figure7() }},
	{"fig8", "Figure 8 — CUDA API usage", false,
		func(experiments.DataConfig) (renderer, error) { return experiments.Figure8() }},
	{"table3", "Table 3 — kernel-class breakdown", false,
		func(experiments.DataConfig) (renderer, error) { return experiments.Table3() }},
	{"ablation-sched", "Ablation — schedulers", false,
		func(experiments.DataConfig) (renderer, error) { return experiments.AblationSchedulers() }},
	{"ablation-spp", "Ablation — SPP pyramid depth", false,
		func(experiments.DataConfig) (renderer, error) { return experiments.AblationSPPLevels(4) }},
	{"ablation-conv", "Ablation — convolution algorithm", false,
		func(experiments.DataConfig) (renderer, error) { return experiments.AblationConvAlgo(), nil }},
	{"throughput", "Derived — survey throughput", false,
		func(experiments.DataConfig) (renderer, error) { return experiments.Throughput(10000) }},
	{"census", "Derived — search-space latency census", false,
		func(experiments.DataConfig) (renderer, error) { return experiments.SpaceCensus(1) }},
	{"multigpu", "Extension — multi-GPU placement", false,
		func(experiments.DataConfig) (renderer, error) { return experiments.ExtensionMultiGPU(16) }},
	{"baseline", "§8.1 — two-stage baseline", true,
		func(dc experiments.DataConfig) (renderer, error) { return experiments.Baseline(dc) }},
}

func studyIDs() []string {
	ids := make([]string, len(studies))
	for i, s := range studies {
		ids[i] = s.id
	}
	return ids
}

var (
	exp       = flag.String("exp", "all", "study id ("+strings.Join(studyIDs(), ",")+") or all")
	tiny      = flag.Bool("tiny", false, "use the seconds-scale training config")
	withTrain = flag.Bool("train", false, "include the training studies (table1, baseline) under -exp all")
)

func main() {
	flag.Parse()
	dc := experiments.FastData()
	if *tiny {
		dc = experiments.TinyData()
	}

	if *exp != "all" {
		for _, s := range studies {
			if s.id == *exp {
				res, err := s.fn(dc)
				if err != nil {
					fail(s.id, err)
				}
				fmt.Println(res.Render())
				return
			}
		}
		fmt.Fprintf(os.Stderr, "drainnet-bench: unknown study %q (want %s or all)\n", *exp, strings.Join(studyIDs(), ", "))
		os.Exit(2)
	}

	fmt.Printf("# drainnet results\n\nGenerated %s. Paper-vs-measured commentary: EXPERIMENTS.md.\n\n",
		time.Now().Format(time.RFC3339))
	for _, s := range studies {
		if s.train && !*withTrain {
			continue
		}
		res, err := s.fn(dc)
		if err != nil {
			fail(s.id, err)
		}
		fmt.Printf("## %s\n\n```\n%s```\n\n", s.title, res.Render())
	}
}

func fail(id string, err error) {
	fmt.Fprintf(os.Stderr, "drainnet-bench: %s: %v\n", id, err)
	os.Exit(1)
}
