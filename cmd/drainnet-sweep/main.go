// drainnet-sweep runs a watershed-scale drainage-crossing sweep from
// the command line — the offline counterpart of POST /v1/sweep.
//
// It synthesizes (or resumes) a large multispectral watershed raster,
// slides the detector's window across it, skips windows the hydrology
// prior rules out, streams the survivors through the batched inference
// pool, merges duplicate detections, and scores the merged crossings
// against the synthetic ground truth (AP / recall / precision per
// scenario).
//
// Jobs checkpoint to -dir after every chunk; Ctrl-C drains in-flight
// clips, persists the cursor, and a rerun with -resume picks the sweep
// back up bit-identically.
//
// Usage:
//
//	drainnet-sweep -rows 1024 -cols 1024 -out crossings.geojson
//	drainnet-sweep -ckpt model.ckpt -scenarios all
//	drainnet-sweep -dir sweeps/            # checkpointed; Ctrl-C is safe
//	drainnet-sweep -dir sweeps/ -resume    # finish interrupted jobs
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"drainnet/internal/experiments"
	"drainnet/internal/export"
	"drainnet/internal/model"
	"drainnet/internal/serve/batcher"
	"drainnet/internal/sweep"
	"drainnet/internal/train"
)

func main() {
	rows := flag.Int("rows", 1024, "watershed raster rows")
	cols := flag.Int("cols", 1024, "watershed raster cols")
	seed := flag.Int64("seed", 1, "terrain seed (same seed+scenario → bit-identical raster)")
	window := flag.Int("window", 0, "sliding-window size (0 = the model's training clip size)")
	stride := flag.Int("stride", 0, "sliding-window stride (0 = window/2)")
	minScore := flag.Float64("min-score", 0.95, "objectness threshold for keeping a window hit")
	mergeRadius := flag.Int("merge-radius", 0, "duplicate-suppression radius in cells (0 = window/2)")
	matchRadius := flag.Int("match-radius", 0, "truth-matching radius for AP scoring (0 = window/2)")
	scenarios := flag.String("scenarios", "baseline", `comma-separated scenario list, or "all"`)
	noPrior := flag.Bool("no-prior", false, "disable the road×stream candidate prior (infer every window)")
	ckptEvery := flag.Int("checkpoint-every", 0, "windows inferred between checkpoints (0 = default 256)")
	roadSpacing := flag.Int("road-spacing", 0, "terrain road-grid spacing in cells (0 = terrain default)")
	streamThreshold := flag.Float64("stream-threshold", 0, "flow-accumulation threshold for streams (0 = scale with raster)")
	ckpt := flag.String("ckpt", "", "model checkpoint to load (skips training)")
	dir := flag.String("dir", "", "sweep checkpoint directory (empty = no persistence)")
	resume := flag.Bool("resume", false, "resume unfinished jobs from -dir instead of starting a new sweep")
	outPath := flag.String("out", "", "write merged crossings to this GeoJSON file")
	replicas := flag.Int("replicas", 0, "model replicas (0 = GOMAXPROCS)")
	maxBatch := flag.Int("max-batch", 8, "max clips per forward pass")
	queue := flag.Int("queue", 256, "bounded inference queue size")
	flag.Parse()

	if *resume && *dir == "" {
		log.Fatal("-resume needs -dir")
	}

	dc := experiments.TinyData()
	cfg := model.SPPNet2().Scaled(dc.WidthScale).WithInput(4, dc.ClipSize)
	net, err := cfg.Build(rand.New(rand.NewSource(dc.NetSeed)))
	if err != nil {
		log.Fatal(err)
	}
	if *ckpt != "" {
		if err := train.LoadFile(*ckpt, net); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("loaded checkpoint %s\n", *ckpt)
	} else {
		fmt.Println("training a detector (use -ckpt to skip)...")
		trainDS, testDS, err := experiments.BuildData(dc)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := train.Fit(net, trainDS, dc.TrainOptions()); err != nil {
			log.Fatal(err)
		}
		ev := train.Evaluate(net, testDS, dc.IoUThreshold)
		fmt.Printf("trained: AP@%.1f = %.1f%%\n", dc.IoUThreshold, ev.AP*100)
	}

	pool, err := batcher.New(cfg, net, batcher.Options{
		Replicas:  *replicas,
		MaxBatch:  *maxBatch,
		QueueSize: *queue,
	})
	if err != nil {
		log.Fatal(err)
	}
	mgr, err := sweep.NewManager(sweep.ManagerOptions{
		Submit:        pool,
		Bands:         cfg.InBands,
		DefaultWindow: cfg.InSize,
		Precision:     string(model.PrecisionFP32),
		Dir:           *dir,
	})
	if err != nil {
		log.Fatal(err)
	}

	var jobs []*sweep.Job
	if *resume {
		n, err := mgr.Resume()
		if err != nil {
			log.Fatal(err)
		}
		for _, j := range mgr.Jobs() {
			if j.Status().State == sweep.StateRunning {
				jobs = append(jobs, j)
			}
		}
		fmt.Printf("level=info msg=resumed checkpoints=%d running=%d dir=%q\n", n, len(jobs), *dir)
		if len(jobs) == 0 {
			fmt.Println("nothing to resume; all checkpointed jobs are finished")
		}
	} else {
		spec := sweep.Spec{
			Rows: *rows, Cols: *cols, Seed: *seed,
			Window: *window, Stride: *stride,
			MinScore:    *minScore,
			MergeRadius: *mergeRadius, MatchRadius: *matchRadius,
			Scenarios:       splitScenarios(*scenarios),
			Prior:           sweep.PriorSpec{Disabled: *noPrior},
			CheckpointEvery: *ckptEvery,
			RoadSpacing:     *roadSpacing,
			StreamThreshold: *streamThreshold,
		}
		job, err := mgr.Start(spec)
		if err != nil {
			log.Fatal(err)
		}
		jobs = append(jobs, job)
		fmt.Printf("level=info msg=sweep_started id=%s raster=%dx%d scenarios=%v checkpointed=%t\n",
			job.ID(), *rows, *cols, job.Spec().Scenarios, *dir != "")
	}

	start := time.Now()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	interrupted := waitForJobs(jobs, sig)

	// Drain in-flight clips and persist cursors before touching the pool.
	mgr.Close()
	pool.Close()
	wall := time.Since(start).Seconds()

	if interrupted {
		for _, j := range jobs {
			st := j.Status()
			fmt.Printf("level=info msg=checkpointed id=%s state=%s inferred=%d/%d\n",
				st.ID, st.State, st.Inferred, st.Candidates)
		}
		if *dir != "" {
			fmt.Printf("interrupted; rerun with -dir %s -resume to finish\n", *dir)
		}
		os.Exit(130)
	}

	failed := false
	for _, j := range jobs {
		st := j.Status()
		if st.State != sweep.StateDone {
			fmt.Fprintf(os.Stderr, "job %s ended %s: %s\n", st.ID, st.State, st.Error)
			failed = true
			continue
		}
		fmt.Printf("level=info msg=sweep_done id=%s windows=%d candidates=%d skipped=%d skip_rate=%.3f inferred=%d hits=%d clips_per_sec=%.1f wall=%.1fs\n",
			st.ID, st.Windows, st.Candidates, st.Skipped, st.SkipRate, st.Inferred, st.Hits, st.ClipsPerSec, wall)
		for _, sc := range st.PerScenario {
			fmt.Printf("level=info msg=scenario scenario=%s windows=%d candidates=%d hits=%d truth=%d ap=%.3f recall=%.3f precision=%.3f\n",
				sc.Scenario, sc.Windows, sc.Candidates, sc.Hits, sc.Truth, sc.AP, sc.Recall, sc.Precision)
		}
	}
	if failed {
		os.Exit(1)
	}

	if *outPath != "" {
		if err := writeGeoJSON(*outPath, jobs); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("level=info msg=geojson_written path=%s\n", *outPath)
	}
}

func splitScenarios(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// waitForJobs blocks until every job finishes or a signal arrives,
// printing a progress line every two seconds. Returns true on signal.
func waitForJobs(jobs []*sweep.Job, sig <-chan os.Signal) bool {
	tick := time.NewTicker(2 * time.Second)
	defer tick.Stop()
	for _, j := range jobs {
		for {
			select {
			case <-j.Done():
			case s := <-sig:
				fmt.Printf("level=info msg=draining signal=%v\n", s)
				return true
			case <-tick.C:
				st := j.Status()
				fmt.Printf("level=info msg=progress id=%s phase=%s scenario=%s windows=%d inferred=%d/%d skip_rate=%.3f clips_per_sec=%.1f\n",
					st.ID, st.Phase, st.Scenario, st.Windows, st.Inferred, st.Candidates, st.SkipRate, st.ClipsPerSec)
				continue
			}
			break
		}
	}
	return false
}

func collectHits(j *sweep.Job) []sweep.Hit {
	var all []sweep.Hit
	cursor := 0
	for cursor >= 0 {
		page, next := j.Results(cursor, 1000)
		all = append(all, page...)
		cursor = next
	}
	return all
}

func writeGeoJSON(path string, jobs []*sweep.Job) error {
	var pts []export.PointFeature
	for _, j := range jobs {
		for _, h := range collectHits(j) {
			pts = append(pts, export.PointFeature{
				Row: h.Row, Col: h.Col, Score: h.Score, Scenario: h.Scenario,
			})
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := export.WriteGeoJSON(f, pts); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
