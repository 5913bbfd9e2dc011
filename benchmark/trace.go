package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// phaseSums are the span-pipeline histograms whose means should add up
// to what the client sees.
var phaseSums = []string{
	"drainnet_queue_wait_seconds",
	"drainnet_batch_assembly_seconds",
	"drainnet_inference_seconds",
	"drainnet_serialization_seconds",
}

// trace is the traced run of one workload. It drives the child server
// with /v1/metrics scraped before and after (and, on a sweep, the job's
// stage polled twice as often as the measured run does), then times each
// layer in process. Every per-layer metric comes from here; the
// end-to-end metrics never do.
//
// The program is not instrumented by this benchmark, so on detect_* the
// traced drive sends what the measured one sends and trace_overhead_share
// is 0 by construction. On sweep_* the faster poll is a real difference,
// and a drive with the measured run's poll precedes the traced one so
// that the two throughputs can be compared.
func (e *env) trace(w workload, seed int64, d time.Duration) (*result, error) {
	srv, err := e.start(w)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	if _, err := e.drive(srv, w, seed+1, min(d/4, 2*time.Second), pollMeasured, false); err != nil {
		return nil, err
	}
	part := d / 2
	var plain *phase
	if w.clipsPerRequest == 0 {
		part = d / 4
		if plain, err = e.drive(srv, w, seed, part, pollMeasured, false); err != nil {
			return nil, err
		}
	}
	client := newClient(requestTimeout)
	defer client.CloseIdleConnections()
	before, err := scrapeMetrics(client, srv.base)
	if err != nil {
		return nil, err
	}
	traced, err := e.drive(srv, w, seed, part, pollTraced, false)
	if err != nil {
		return nil, err
	}
	// Span-derived histograms trail the replies; let the pipeline drain.
	time.Sleep(50 * time.Millisecond)
	after, err := scrapeMetrics(client, srv.base)
	if err != nil {
		return nil, err
	}
	srv.stop()

	m := map[string]float64{}
	route := "/v1/sweep/" // what a sweep's poller hits
	if w.clipsPerRequest == 1 {
		route = "/v1/detect"
	} else if w.clipsPerRequest > 1 {
		route = "/v1/detect/batch"
	}
	histMs := func(name string, match ...string) float64 { return meanMs(gainedHist(before, after, name, match...)) }
	gained := func(name string) float64 { return after.value(name) - before.value(name) }
	m["serve.http_ms_mean"] = histMs("drainnet_http_request_duration_seconds", "route", route)
	m["serve.serialization_ms_mean"] = histMs("drainnet_serialization_seconds")
	m["batcher.queue_wait_ms_mean"] = histMs("drainnet_queue_wait_seconds")
	m["batcher.assembly_ms_mean"] = histMs("drainnet_batch_assembly_seconds")
	m["batcher.inference_ms_mean"] = histMs("drainnet_inference_seconds")
	if b := gained("drainnet_batches_total"); b > 0 {
		m["batcher.mean_batch"] = gained("drainnet_requests_served_total") / b
	}
	m["batcher.rejected"] = gained("drainnet_requests_rejected_total")
	m["batcher.latency_p99_ms"] = gainedHist(before, after, "drainnet_request_latency_seconds").Quantile(0.99) * 1e3
	m["telemetry.events_dropped"] = gained("drainnet_telemetry_events_dropped_total")
	if w.clipsPerRequest > 0 {
		var phases float64
		for _, name := range phaseSums {
			phases += histMs(name)
		}
		if client := mean(traced.latencyMs); client > 0 {
			m["batcher.phase_coverage"] = phases / client
		}
		sorted := sortedCopy(traced.latencyMs)
		if supported(len(sorted), 90) {
			m["serve.client_p90_ms"] = percentile(sorted, 90)
		}
	}
	for stage, s := range traced.phaseS {
		m["sweep.phase_s."+stage] = s
	}
	var windows, skipped, candidates, inferred, exited int
	for _, j := range traced.jobs {
		windows += j.Windows
		skipped += j.Skipped
		candidates += j.Candidates
		inferred += j.Inferred
		exited += j.Exited
	}
	if windows > 0 {
		m["sweep.skip_rate"] = float64(skipped) / float64(windows)
		m["sweep.candidates"] = float64(candidates)
	}
	if inferred > 0 {
		m["sweep.exit_rate"] = float64(exited) / float64(inferred)
	}
	if plain != nil && plain.clips > 0 && traced.clips > 0 {
		m["trace_overhead_share"] = 1 - (float64(traced.clips)/traced.wall.Seconds())/(float64(plain.clips)/plain.wall.Seconds())
	}

	rec := newRecorder()
	layers, err := e.layerBench(rec)
	if err != nil {
		return nil, err
	}
	for k, v := range layers {
		m[k] = v
	}
	tracePath := filepath.Join(e.outDir, "trace-"+w.name+".json")
	if err := writeChromeTrace(tracePath, rec.spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "chrome trace: %s (%d spans); self time by layer, µs: %v\n",
		tracePath, len(rec.spans), layerSelf(rec.spans))

	r := &result{
		Workload: w.name, Seed: seed,
		Attempted: traced.attempted, Failed: traced.failed,
		Samples: len(traced.latencyMs), FirstError: traced.firstError,
		Metrics: map[string]value{},
	}
	if plain != nil {
		r.Attempted += plain.attempted
		r.Failed += plain.failed
		if plain.firstError != "" {
			r.FirstError = plain.firstError
		}
	}
	r.ErrorShare = float64(r.Failed) / float64(max(r.Attempted, 1))
	for _, spec := range e.spec.PerLayer {
		r.Metrics[spec.Name] = value{m[spec.Name], spec.Unit} // 0 where the workload has no such layer
		delete(m, spec.Name)
	}
	if len(m) > 0 {
		return nil, fmt.Errorf("harness measures per-layer metrics BENCHMARK.json does not list: %v", m)
	}
	r.Correct = r.Attempted > 0 && r.Failed == 0
	if r.Correct {
		os.Remove(srv.logPath)
	}
	return r, nil
}
