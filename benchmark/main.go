// Command benchmark is drainnet's one measurement harness: it builds
// cmd/drainnet-serve at the commit under test, runs it as a child
// process, drives it over HTTP with four closed-loop workloads, checks
// every answer, and reports the end-to-end metrics of BENCHMARK.json;
// with -trace 1 it reports the per-layer metrics instead. README.md in
// this directory says what each workload and metric is for.
//
//	go -C benchmark run .                          # all four workloads
//	go -C benchmark run . -workload detect_single  # one, as the driver runs it
//	go -C benchmark run . -trace 1                 # per-layer metrics + Chrome trace
//	go -C benchmark run . -selfcheck               # A B A B, compare against the bounds
//	go -C benchmark run . -diff old.json new.json  # compare two -out files
//	go -C benchmark run . -list                    # every metric, unit, direction, bound
//	go -C benchmark run . -mkckpt                  # retrain the bench checkpoint, re-pin
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// report is what a run over several workloads writes with -out, and
// what -diff reads.
type report struct {
	Stamp   stamp     `json:"provenance"`
	Seconds float64   `json:"seconds"`
	Results []*result `json:"results"`
	// Claim is always null: this harness measures, it asserts no gain.
	Claim *string `json:"claim"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run() error {
	root := flag.String("root", "", "checkout to measure (default: the directory above this one)")
	workloadName := flag.String("workload", "", "run one workload and end with the driver's result line (default: all)")
	seed := flag.Int64("seed", 1, "workload seed: the order clips and sweep specs are drawn in")
	seconds := flag.Float64("seconds", 0, "length of the measured phase (default: run_seconds of BENCHMARK.json)")
	traceOn := flag.Int("trace", 0, "1 reports the per-layer metrics from a traced run, 0 the end-to-end metrics")
	list := flag.Bool("list", false, "print every metric with unit, direction and bound, and exit")
	selfcheck := flag.Bool("selfcheck", false, "run the suite twice, interleaved, and fail if any end-to-end metric differs by more than its bound")
	diff := flag.Bool("diff", false, "compare two -out files given as arguments against the bounds")
	out := flag.String("out", "", "also write the results of an all-workload run to this file")
	runs := flag.Int("runs", 1, "how often an all-workload run goes through the suite (seeds seed, seed+1, …); -diff wants several")
	mkckpt := flag.Bool("mkckpt", false, "train testdata/bench.ckpt afresh and rewrite pins.json")
	flag.Parse()

	if *root == "" {
		*root = ".."
		if _, err := os.Stat("benchmark/main.go"); err == nil {
			*root = "."
		}
	}
	abs, err := filepath.Abs(*root)
	if err != nil {
		return err
	}
	if *mkckpt {
		return makeCheckpoint(filepath.Join(abs, "benchmark"))
	}
	spec, err := loadBenchSpec(abs)
	if err != nil {
		return err
	}
	switch {
	case *list:
		printMetrics(spec)
		return nil
	case *diff:
		if flag.NArg() != 2 {
			return fmt.Errorf("-diff takes two result files")
		}
		return diffFiles(spec, flag.Arg(0), flag.Arg(1))
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	d := time.Duration(*seconds * float64(time.Second))

	e, err := newEnv(abs)
	if err != nil {
		return err
	}
	// A signal must not leave a child serving: children die with their
	// process group on SIGKILL of this process (Pdeathsig), and on
	// SIGINT/SIGTERM this handler ends them first.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		e.stopAll()
		os.Exit(130)
	}()
	defer e.stopAll()

	one := e.measure
	if *traceOn != 0 {
		one = e.trace
	}
	if *selfcheck {
		return e.selfcheck(*seed, d)
	}
	if *workloadName != "" {
		w, ok := workloadByName(*workloadName)
		if !ok {
			return fmt.Errorf("no workload %q (have %v)", *workloadName, workloadNames())
		}
		r, err := one(w, *seed, d)
		if err != nil {
			return err
		}
		printResult(spec, r)
		fmt.Println(r.driverLine())
		return nil
	}

	rep := report{Stamp: newStamp(), Seconds: *seconds}
	failed := false
	for i := 0; i < *runs; i++ {
		for _, w := range workloads {
			r, err := one(w, *seed+int64(i), d)
			if err != nil {
				return err
			}
			printResult(spec, r)
			rep.Results = append(rep.Results, r)
			failed = failed || !r.Correct
		}
	}
	if *out != "" {
		if err := os.WriteFile(*out, marshalIndent(rep), 0o644); err != nil {
			return err
		}
	}
	summary, _ := json.Marshal(map[string]any{"provenance": rep.Stamp, "workloads": len(rep.Results), "all_correct": !failed, "claim": nil})
	fmt.Println(string(summary))
	if failed {
		return fmt.Errorf("verification failed; server logs kept in %s", filepath.Join(e.outDir, "logs"))
	}
	return nil
}

// marshalIndent is json.MarshalIndent for the harness's own values,
// which always encode.
func marshalIndent(v any) []byte {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		panic(err)
	}
	return buf
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func printMetrics(spec *benchSpec) {
	fmt.Println("end-to-end (reported for every workload; bound = share of the parent's median it may worsen by):")
	for _, m := range spec.EndToEnd {
		fmt.Printf("  %-44s %-8s %-6s is better  bound %.2f\n", m.Name, m.Unit, m.Better, m.Bound)
	}
	fmt.Println("per-layer (with -trace 1; no bound):")
	for _, m := range spec.PerLayer {
		fmt.Printf("  %-44s %-8s %-6s is better\n", m.Name, m.Unit, m.Better)
	}
}

// printResult lists a result's metrics by name, in BENCHMARK.json order.
func printResult(spec *benchSpec, r *result) {
	fmt.Printf("== %s seed %d: %d operations, %d failed (error_share %.4f), %d latency samples, correct=%t\n",
		r.Workload, r.Seed, r.Attempted, r.Failed, r.ErrorShare, r.Samples, r.Correct)
	if r.FirstError != "" {
		fmt.Printf("   first error: %s\n", r.FirstError)
	}
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		if v, ok := r.Metrics[m.Name]; ok {
			fmt.Printf("   %-44s %14.6g %s\n", m.Name, v.Value, v.Unit)
		}
	}
	if d := r.Diagnostics; d != nil {
		fmt.Printf("   diagnostics: wall %.2fs, %d cold starts, host_ref_ms median %.3f max %.3f, clips/s by second %v\n",
			d.WallS, len(d.SetupS), median(d.HostRefMs), percentile(sortedCopy(d.HostRefMs), 100), d.ClipsPerSecond)
	}
}
