// drainnet-serve trains (or loads) a drainage-crossing detector and
// serves it over the versioned /v1 HTTP API:
//
//	POST   /v1/detect             {"bands":4,"size":100,"pixels":[...]} → hit JSON
//	POST   /v1/detect/batch       {"items":[{...},{...}]} → positional results
//	POST   /v1/sweep              start an async watershed sweep job
//	GET    /v1/sweep              list sweep jobs
//	GET    /v1/sweep/{id}         sweep progress, phase, clips/sec
//	GET    /v1/sweep/{id}/results cursor-paginated crossing hits
//	DELETE /v1/sweep/{id}         cancel a sweep job
//	GET    /v1/model              served architecture and parameter count
//	GET    /v1/stats              queue depth, batch histogram, latency quantiles
//	GET    /v1/metrics            Prometheus text exposition (?format=json)
//	GET    /v1/trace              most recent sampled request as Chrome trace
//	GET    /v1/healthz            readiness (503 while draining)
//	POST   /v1/control/batching   retune the effective max-batch live
//	GET    /healthz               liveness
//	GET    /debug/pprof/*         Go profiling endpoints (only with -pprof)
//
// Any other path answers 404 with the error envelope.
//
// Sweep jobs checkpoint to -sweep-dir after every chunk and survive a
// graceful drain: restart the server with the same -sweep-dir and the
// unfinished jobs resume bit-identically.
//
// Inference is batched across a pool of independent model replicas: an
// idle replica takes what is waiting at once, so requests coalesce only
// while every replica is busy and the batch size follows load, up to
// -max-batch (the §6.4 knob).
// Telemetry is on by default: serving counters and phase histograms are
// always scrapeable at /v1/metrics, and -trace-sample N additionally
// exports every N-th request's span as a Chrome trace.
//
// Usage:
//
//	drainnet-serve -addr :8080                 # train quickly, then serve
//	drainnet-serve -ckpt model.ckpt            # load a saved checkpoint
//	drainnet-serve -replicas 4 -max-batch 32 -queue 256
//	drainnet-serve -trace-sample 100 -trace-dir traces/ -pprof
//	drainnet-serve -precision int8 -quant-max-ap-drop 0.01   # accuracy-gated int8
//	drainnet-serve -autotune -cost-cache costs.json          # tuned conv kernels
//	drainnet-serve -dynamic -precision auto                  # dynamic inference
//	drainnet-serve -nas-plan nas-out/plan.json               # serve a searched winner
//
// The pipeline flags (-precision, -autotune, -dynamic, with
// -quant-max-ap-drop, -max-batch and -cost-cache) feed one compile step,
// model.Compile: quantization gate → kernel autotuning → dynamic planning
// → weight packing, each only when asked. It returns the
// plan every replica executes — the same call drainnet-nas prices
// candidates with, so what a search measured is what this server runs.
// Every step answers to one accuracy gate: the loaded net's AP on one
// held-out split, built and scored once and only when a step needs it,
// and an epsilon, -quant-max-ap-drop, taken as given (0 admits no AP
// loss); -cost-cache memoizes the autotuner's kernel measurements
// across restarts.
//
//   - -precision int8 quantizes the detector and refuses to start unless
//     the held-out AP drop stays within epsilon; auto falls back to fp32.
//   - -autotune measures every conv kernel variant (im2col, Winograd
//     F(2,3), NCHWc, direct — plus int8 when its gate passed) per layer
//     and batch bucket and serves the fastest mix that passes the gate.
//   - -dynamic serves the early-exit / spatially-masked fp32 path, with
//     easy clips routed to int8 replicas when that gate passed; a ladder
//     demotes masking first, then the exit.
//
// /v1/model and the drainnet_kernel_choice gauge report what the plan
// actually serves (precision after any fallback, kernels after any
// override); /v1/stats carries the live exit/mask/route rates.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"drainnet/internal/experiments"
	"drainnet/internal/model"
	"drainnet/internal/nas"
	"drainnet/internal/serve"
	"drainnet/internal/telemetry"
	"drainnet/internal/terrain"
	"drainnet/internal/train"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	ckpt := flag.String("ckpt", "", "checkpoint to load (skips training)")
	threshold := flag.Float64("threshold", 0.7, "objectness confidence threshold")
	replicas := flag.Int("replicas", 0, "model replicas serving concurrently (0 = GOMAXPROCS)")
	maxBatch := flag.Int("max-batch", 8, "max clips coalesced into one forward pass")
	queue := flag.Int("queue", 64, "most requests accepted and not yet running (beyond that → 429)")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request timeout (queue + inference)")
	telemetryOn := flag.Bool("telemetry", true, "run the span pipeline feeding /v1/metrics phase histograms")
	traceSample := flag.Int("trace-sample", 0, "export every N-th request as a Chrome trace (0 = off)")
	traceDir := flag.String("trace-dir", "", "also write sampled traces to this directory (req-<id>.trace.json)")
	pprofOn := flag.Bool("pprof", false, "expose /debug/pprof endpoints")
	precisionFlag := flag.String("precision", "fp32", "serving precision: fp32, int8 (refuse to start if the accuracy gate fails) or auto (fall back to fp32)")
	quantMaxDrop := flag.Float64("quant-max-ap-drop", 0.01, "accuracy gate epsilon: largest tolerated AP drop (fp32 AP − int8 AP) on the held-out split before int8 is refused")
	autotune := flag.Bool("autotune", false, "measure every conv kernel variant (im2col, winograd, nchwc, direct, int8 when gated on) per layer and batch bucket on this machine and serve the fastest accuracy-gated mix; shares -quant-max-ap-drop as the gate epsilon")
	costCache := flag.String("cost-cache", "", "-autotune's kernel measurement cache file (loaded if present, saved when it grew; a warm cache skips re-measurement)")
	dynamicOn := flag.Bool("dynamic", false, "serve the accuracy-gated dynamic inference path (early-exit negatives, spatial masking, and — with a passed int8 gate — per-request precision routing); shares -quant-max-ap-drop as the gate epsilon")
	nasPlan := flag.String("nas-plan", "", "serve a drainnet-nas winner: plan.json written by drainnet-nas -out; sets the architecture, loads the sibling checkpoint, and applies the plan's precision and kernel mode (explicit -ckpt/-precision/-autotune flags still win)")
	sweepDir := flag.String("sweep-dir", "", "checkpoint directory for /v1/sweep jobs (empty = jobs die with the process); unfinished jobs in it resume at startup")
	workerID := flag.Int("worker-id", -1, "cluster worker slot id; labels every metric with worker=<id> (-1 = standalone)")
	flag.Parse()

	precision, err := model.ParsePrecision(*precisionFlag)
	if err != nil {
		log.Fatal(err)
	}

	dc := experiments.TinyData()
	cfg := model.SPPNet2().Scaled(dc.WidthScale).WithInput(4, dc.ClipSize)

	// A NAS winner plan replaces the default architecture with the
	// searched one and carries its own checkpoint, precision and kernel
	// mode; flags the operator set explicitly still win.
	if *nasPlan != "" {
		plan, err := nas.LoadWinnerPlan(*nasPlan)
		if err != nil {
			log.Fatal(err)
		}
		explicit := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
		cfg = plan.Arch
		if !explicit["ckpt"] {
			*ckpt = plan.ResolveCheckpoint(*nasPlan)
		}
		if !explicit["precision"] {
			precision = plan.Candidate.Precision
		}
		if !explicit["autotune"] {
			*autotune = plan.Candidate.Kernels == nas.KernelModeTuned
		}
		fmt.Printf("level=info msg=nas_plan arch=%q precision=%s kernels=%s accuracy=%.4f threshold=%.2f measured_b1_ms=%.4f measured_b%d_ms=%.4f\n",
			cfg.Name, precision, plan.Candidate.Kernels, plan.Accuracy, plan.Threshold,
			plan.LatencyB1Ns/1e6, plan.MaxBatch, plan.LatencyBNNs/1e6)
	}
	net, err := cfg.Build(rand.New(rand.NewSource(dc.NetSeed)))
	if err != nil {
		log.Fatal(err)
	}
	// calibDS is the held-out split the accuracy gates score on.
	var calibDS *terrain.Dataset
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
		calibDS = testDS
		if _, err := train.Fit(net, trainDS, dc.TrainOptions()); err != nil {
			log.Fatal(err)
		}
		ev := train.Evaluate(net, testDS, dc.IoUThreshold)
		fmt.Printf("trained: AP@%.1f = %.1f%%\n", dc.IoUThreshold, ev.AP*100)
	}

	// One compile step assembles what serves. The held-out split is built
	// only if a gate asks for it; the training path reuses its test split.
	cache := model.NewCostCache()
	if *costCache != "" {
		if cache, err = model.LoadCostCache(*costCache); err != nil {
			log.Fatal(err)
		}
	}
	cached := cache.Len()
	plan, err := model.Compile(cfg, net, func() (*terrain.Dataset, error) {
		if calibDS != nil {
			return calibDS, nil
		}
		_, testDS, err := experiments.BuildData(dc)
		return testDS, err
	}, model.CompileOptions{
		Precision: precision,
		MaxAPDrop: *quantMaxDrop,
		Autotune:  *autotune,
		Dynamic:   *dynamicOn,
		MaxBatch:  *maxBatch,
		CostCache: cache,
	})
	var gateErr *model.QuantGateError
	if errors.As(err, &gateErr) {
		logQuantGate(precision, gateErr.Decision)
		log.Fatalf("int8 requested but the accuracy gate failed (AP drop %.4f > epsilon %.4f); raise -quant-max-ap-drop or use -precision auto to fall back",
			gateErr.Decision.Drop, gateErr.Decision.Epsilon)
	}
	if err != nil {
		log.Fatal(err)
	}
	if *costCache != "" && cache.Len() != cached {
		if err := cache.Save(*costCache); err != nil {
			log.Printf("level=warn msg=\"cost cache not saved\" err=%v", err)
		}
	}
	// The decision report of every step that ran, one greppable line each.
	if dec := plan.Quant; dec != nil {
		logQuantGate(precision, dec)
		if !dec.Enabled {
			fmt.Println(`level=info msg=quant_fallback reason="accuracy gate failed" serving=fp32`)
		}
	}
	if k := plan.Kernels; k != nil {
		fmt.Printf("level=info msg=kernel_autotune mix=%q demotions=%d fp32_ap=%.4f tuned_ap=%.4f ap_drop=%.4f epsilon=%.4f measured=%d cache_entries=%d cache=%q\n",
			k.Mix(), k.Demotions, k.FP32AP, k.TunedAP, k.Drop, k.Epsilon, k.Measured, cache.Len(), *costCache)
	}
	if d := plan.Dynamic; d != nil {
		fmt.Printf("level=info msg=dynamic_plan exit=%t mask=%t router=%t demotions=%d fp32_ap=%.4f dynamic_ap=%.4f ap_drop=%.4f epsilon=%.4f calib_exit_rate=%.3f calib_mask_rate=%.3f\n",
			d.ExitEnabled, d.MaskEnabled, d.RouterEnabled, d.Demotions,
			d.FP32AP, d.DynamicAP, d.Drop, d.Epsilon, d.ExitRate, d.MaskRate)
	}
	var tel *telemetry.Telemetry
	if *telemetryOn {
		topts := telemetry.Options{SampleEvery: *traceSample}
		if *traceDir != "" {
			topts.TraceSink = telemetry.FileSink(*traceDir)
		}
		if *workerID >= 0 {
			topts.ConstLabels = map[string]string{"worker": strconv.Itoa(*workerID)}
		}
		tel = telemetry.New(topts)
	} else {
		tel = telemetry.NewDisabled()
	}

	srv, err := serve.NewWithOptions(cfg, plan.Served, *threshold, serve.Options{
		Replicas:       *replicas,
		MaxBatch:       *maxBatch,
		QueueSize:      *queue,
		RequestTimeout: *timeout,
		Telemetry:      tel,
		EnablePprof:    *pprofOn,
		Plan:           plan,
		SweepDir:       *sweepDir,
		SweepResume:    *sweepDir != "",
	})
	if err != nil {
		log.Fatal(err)
	}
	popts := srv.Pool().Options()
	// One structured line with the full resolved configuration, so a log
	// scraper (or a human) sees every serving knob in one place.
	fmt.Printf("level=info msg=serving model=%q addr=%s gomaxprocs=%d isa=%s decode_isa=%s precision=%s autotune=%t dynamic=%t pack_ms=%.1f replicas=%d max_batch=%d queue=%d timeout=%v telemetry=%t trace_sample=%d trace_dir=%q pprof=%t sweep_dir=%q worker_id=%d\n",
		cfg.Name, *addr, runtime.GOMAXPROCS(0), srv.Model().ISA, srv.Model().DecodeISA, plan.Precision, *autotune, *dynamicOn,
		float64(plan.PackTime)/float64(time.Millisecond), popts.Replicas, popts.MaxBatch, popts.QueueSize,
		*timeout, *telemetryOn, *traceSample, *traceDir, *pprofOn, *sweepDir, *workerID)

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		log.Fatal(err)
	case s := <-sig:
		fmt.Printf("level=info msg=draining signal=%v\n", s)
	}

	// Flip readiness first so a router stops sending new work, stop
	// accepting connections, finish in-flight HTTP exchanges, then drain
	// the inference pool (queued requests are still served).
	srv.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	srv.Close()
	st := srv.Pool().Stats()
	fmt.Printf("level=info msg=drained served=%d batches=%d mean_batch=%.2f rejected=%d canceled=%d\n",
		st.Served, st.Batches, st.MeanBatch, st.Rejected, st.Canceled)
}

func logQuantGate(requested model.Precision, dec *model.QuantDecision) {
	fmt.Printf("level=info msg=quant_gate requested=%s quantized_layers=%d fallback_layers=%d fp32_ap=%.4f int8_ap=%.4f ap_drop=%.4f epsilon=%.4f enabled=%t\n",
		requested, dec.Report.Quantized, dec.Report.Fallback,
		dec.FP32AP, dec.Int8AP, dec.Drop, dec.Epsilon, dec.Enabled)
}
