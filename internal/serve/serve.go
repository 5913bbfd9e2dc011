// Package serve exposes a trained drainage-crossing detector over a
// versioned HTTP API:
//
//	POST   /v1/detect             one clip in, one detection hit out
//	POST   /v1/detect/batch       {"items":[clips]}, positional results
//	POST   /v1/sweep              start an async watershed sweep job
//	GET    /v1/sweep              list sweep jobs
//	GET    /v1/sweep/{id}         job status (progress, phase, clips/sec)
//	GET    /v1/sweep/{id}/results cursor-paginated crossing hits
//	DELETE /v1/sweep/{id}         cancel a job
//	GET    /v1/model              served architecture and parameter count
//	GET    /v1/stats              batching/latency statistics (JSON)
//	GET    /v1/metrics            Prometheus text exposition (?format=json)
//	GET    /v1/trace              latest sampled request as Chrome trace
//	GET    /v1/healthz            liveness + readiness (200 ready, 503 draining)
//	POST   /v1/control/batching   retune the effective max-batch live
//	GET    /healthz               liveness (unversioned)
//	GET    /debug/pprof/*         Go profiling (only with Options.EnablePprof)
//
// Any other path, the unversioned /detect and /model included, answers
// 404 with the error envelope.
//
// Response conventions: no /v1 endpoint returns a bare JSON array —
// collections arrive as {"items": [...]} with an optional next_cursor —
// and every detection carries the shared Hit schema regardless of
// endpoint. Errors use a uniform envelope:
// {"error":{"code":"...","message":"..."}}.
//
// Inference runs on a batched multi-replica pool (internal/serve/batcher):
// an idle replica takes what is waiting at once, up to the §6.4 max-batch,
// so requests coalesce into batches only while every replica is busy. The
// clips of one /v1/detect/batch request reach the pool together.
// Sweep jobs (internal/sweep) stream their candidate clips through the
// same pool and survive graceful drains via on-disk checkpoints.
//
// Request bodies are capped per route (413 payload_too_large beyond the
// cap). The two clip routes do not go through encoding/json: clipjson.go
// reads the body once into pooled storage and scans it in one pass that
// checks the JSON grammar and the request schema and parses every pixel,
// bit-identically to encoding/json, into the float32 storage the
// batcher's tensors view.
//
// Every request flows through internal/telemetry: handlers and the pool
// emit span events (accepted → enqueued → batch formed → dispatch →
// inference done → response written) that aggregate into the registry
// served by /v1/metrics; /v1/stats is a view over the same registry.
// Accepted → enqueued is the decode phase: body read, scan and schema
// check (drainnet_decode_seconds).
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync/atomic"
	"time"

	"drainnet/internal/metrics"
	"drainnet/internal/model"
	"drainnet/internal/nn"
	"drainnet/internal/serve/batcher"
	"drainnet/internal/sweep"
	"drainnet/internal/telemetry"
	"drainnet/internal/tensor"
)

// minClipSize is the smallest clip edge the service accepts; smaller
// inputs vanish inside the conv/pool stack.
const minClipSize = 8

// maxBatchItems bounds how many clips one /v1/detect/batch call may carry.
const maxBatchItems = 256

// DetectRequest is the POST /v1/detect payload: a flattened
// bands×size×size image in row-major order, values in [0,1].
type DetectRequest struct {
	Bands  int       `json:"bands"`
	Size   int       `json:"size"`
	Pixels []float32 `json:"pixels"`
}

// Hit is the one detection schema every /v1 endpoint speaks. Clip
// endpoints (/v1/detect, /v1/detect/batch) fill Box with clip-relative
// normalized coordinates; sweep results (/v1/sweep/{id}/results) fill
// Point with absolute raster coordinates and the scenario that produced
// the hit.
type Hit struct {
	Score float64 `json:"score"`
	// HasObject applies the relevant confidence threshold (the server's
	// for clips, the job spec's min_score for sweeps).
	HasObject bool         `json:"has_object"`
	Box       *metrics.Box `json:"box,omitempty"`
	Point     *RasterPoint `json:"point,omitempty"`
	Scenario  string       `json:"scenario,omitempty"`
}

// RasterPoint locates a sweep hit in full-raster cell coordinates.
type RasterPoint struct {
	Row int `json:"row"`
	Col int `json:"col"`
}

// BatchRequest is the POST /v1/detect/batch payload.
type BatchRequest struct {
	Items []DetectRequest `json:"items"`
}

// BatchResponse carries the positional batch results.
type BatchResponse struct {
	Items []BatchItem `json:"items"`
}

// BatchItem is one positional result of POST /v1/detect/batch: exactly
// one of Result or Error is set.
type BatchItem struct {
	Result *Hit       `json:"result,omitempty"`
	Error  *ErrorBody `json:"error,omitempty"`
}

// ItemsResponse is the generic collection envelope: /v1 endpoints never
// return a bare JSON array. NextCursor, when present, is the cursor of
// the next page.
type ItemsResponse[T any] struct {
	Items []T `json:"items"`
	// NextCursor is set when another page exists.
	NextCursor *int `json:"next_cursor,omitempty"`
}

func items[T any](xs []T) ItemsResponse[T] {
	if xs == nil {
		xs = []T{}
	}
	return ItemsResponse[T]{Items: xs}
}

// ModelInfo describes the served model (GET /v1/model).
type ModelInfo struct {
	Name      string  `json:"name"`
	Notation  string  `json:"notation"`
	InBands   int     `json:"in_bands"`
	ClipSize  int     `json:"clip_size"`
	Params    int     `json:"parameters"`
	Threshold float64 `json:"threshold"`
	Replicas  int     `json:"replicas"`
	MaxBatch  int     `json:"max_batch"`
	// Precision is the numeric precision the pool actually serves at
	// ("fp32" or "int8") — after any accuracy-gate fallback, not the
	// requested mode.
	Precision string `json:"precision"`
	// Kernels, when the served plan was autotuned, reports the kernel
	// every tuned conv layer actually serves with (model.Plan.KernelReport):
	// precision, per-bucket kernel, and measured speedup over im2col.
	Kernels []model.LayerKernel `json:"kernels,omitempty"`
	// KernelDemotions counts accuracy-gate demotion steps the kernel
	// autotuner took (0 = first measured mix served).
	KernelDemotions int `json:"kernel_demotions,omitempty"`
	// ISA is the widest instruction set the tensor kernels serve with on
	// this host (tensor.KernelISA): "avx512", "avx2" or "generic".
	ISA string `json:"isa"`
	// DecodeISA is the instruction set the JSON pixel decoder of
	// /v1/detect and /v1/detect/batch runs on this host: "avx512" (the
	// pixel-run kernel, gated by tensor.ByteKernelMissing, which asks for
	// more CPUID bits than ISA's "avx512") or "generic" (the scalar loop).
	DecodeISA string `json:"decode_isa"`
	// Dynamic, when the served plan runs the dynamic inference path,
	// reports the accuracy-gated plan it serves with.
	Dynamic *DynamicInfo `json:"dynamic,omitempty"`
}

// DynamicInfo is the /v1/model view of a dynamic inference plan: which
// mechanisms survived the accuracy gate, the calibrated knobs, and the
// measured AP cost.
type DynamicInfo struct {
	// ExitEnabled/MaskEnabled/RouterEnabled report which of the three
	// mechanisms the gate ladder kept.
	ExitEnabled   bool `json:"exit_enabled"`
	MaskEnabled   bool `json:"mask_enabled"`
	RouterEnabled bool `json:"router_enabled"`
	// ExitThreshold is the calibrated early-exit logit cut; MaskThreshold
	// the masked kernels' band-energy cut (0 when the mechanism is off).
	ExitThreshold float64 `json:"exit_threshold,omitempty"`
	MaskThreshold float64 `json:"mask_threshold,omitempty"`
	// Demotions counts gate-ladder steps taken (0 = most aggressive plan
	// served, 1 = masking dropped, 2 = exit dropped too).
	Demotions int `json:"demotions"`
	// FP32AP/DynamicAP/APDrop/Epsilon are the calibration-set accuracy
	// accounting behind the gate decision.
	FP32AP    float64 `json:"fp32_ap"`
	DynamicAP float64 `json:"dynamic_ap"`
	APDrop    float64 `json:"ap_drop"`
	Epsilon   float64 `json:"epsilon"`
	// CalibExitRate/CalibMaskRate are the rates measured on the
	// calibration split (serving rates live in /v1/stats).
	CalibExitRate float64 `json:"calib_exit_rate"`
	CalibMaskRate float64 `json:"calib_mask_rate"`
}

// Options configures the serving pool behind the HTTP API. The zero
// value selects the batcher defaults and a 30 s request timeout.
type Options struct {
	// Replicas, MaxBatch, QueueSize configure the inference pool (see
	// batcher.Options).
	Replicas  int
	MaxBatch  int
	QueueSize int
	// RequestTimeout bounds one request's time in queue + inference
	// (default 30s; ≤0 keeps the default).
	RequestTimeout time.Duration
	// Telemetry is the observability hub serving /v1/metrics and /v1/
	// trace. Nil creates a default always-on instance (span pipeline
	// enabled, no trace sampling). The server owns it either way and
	// closes it in Close.
	Telemetry *telemetry.Telemetry
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
	// Plan is the compiled deployment to serve (model.Compile; see
	// batcher.Options.Plan); nil serves net as it stands. /v1/model and
	// the drainnet_kernel_choice gauge report what the plan serves.
	Plan *model.Plan
	// SweepDir is the checkpoint directory for /v1/sweep jobs. Empty
	// keeps jobs in memory only — they die with the process instead of
	// surviving a graceful drain.
	SweepDir string
	// SweepResume, with SweepDir set, relaunches unfinished checkpointed
	// jobs when the server starts.
	SweepResume bool
}

func (o Options) withDefaults() Options {
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 30 * time.Second
	}
	return o
}

// Server serves one trained detector over the /v1 API.
type Server struct {
	cfg       model.Config
	threshold float64
	opts      Options
	pool      *batcher.Pool
	params    int
	sweeps    *sweep.Manager

	// draining flips when a graceful shutdown begins (BeginDrain/Close);
	// /v1/healthz readiness reports it so an orchestrator or the cluster
	// router stops routing new work here while in-flight requests finish.
	draining atomic.Bool

	tel          *telemetry.Telemetry
	httpRequests *telemetry.CounterVec
	httpDuration *telemetry.HistogramVec
}

// New creates a server with default pool options. cfg must be the
// configuration net was built from; New panics otherwise (programmer
// error — use NewWithOptions to handle it).
func New(cfg model.Config, net *nn.Sequential, threshold float64) *Server {
	s, err := NewWithOptions(cfg, net, threshold, Options{})
	if err != nil {
		panic(err)
	}
	return s
}

// NewWithOptions creates a server whose inference pool is configured by
// opts. The pool takes ownership of net (replica 0).
func NewWithOptions(cfg model.Config, net *nn.Sequential, threshold float64, opts Options) (*Server, error) {
	opts = opts.withDefaults()
	tel := opts.Telemetry
	if tel == nil {
		tel = telemetry.New(telemetry.Options{})
	}
	params := nn.ParamCount(net)
	pool, err := batcher.New(cfg, net, batcher.Options{
		Replicas:  opts.Replicas,
		MaxBatch:  opts.MaxBatch,
		QueueSize: opts.QueueSize,
		Telemetry: tel,
		Plan:      opts.Plan,
	})
	if err != nil {
		tel.Close()
		return nil, fmt.Errorf("serve: %w", err)
	}
	s := &Server{cfg: cfg, threshold: threshold, opts: opts, pool: pool, params: params, tel: tel}
	plan := pool.Options().Plan
	sweepOpts := sweep.ManagerOptions{
		Submit:        pool,
		Bands:         cfg.InBands,
		DefaultWindow: cfg.InSize,
		Precision:     string(plan.Precision),
		Dir:           opts.SweepDir,
		Telemetry:     tel,
	}
	if plan.Dynamic != nil {
		sweepOpts.MaskRate = plan.Dynamic.Stats.Rate
	}
	s.sweeps, err = sweep.NewManager(sweepOpts)
	if err != nil {
		pool.Close()
		tel.Close()
		return nil, fmt.Errorf("serve: %w", err)
	}
	if opts.SweepResume && opts.SweepDir != "" {
		if _, err := s.sweeps.Resume(); err != nil {
			pool.Close()
			tel.Close()
			return nil, fmt.Errorf("serve: resume sweeps: %w", err)
		}
	}
	s.httpRequests = tel.Registry().CounterVec("drainnet_http_requests_total",
		"HTTP requests, by route and status code.", "route", "code")
	s.httpDuration = tel.Registry().HistogramVec("drainnet_http_request_duration_seconds",
		"HTTP request handling time, by route.", telemetry.TimeBuckets, "route")
	if kernels := plan.KernelReport(); kernels != nil {
		// One gauge sample per (layer, bucket) set to 1 on the serving
		// kernel, so dashboards can plot the serving mix and alert when a
		// restart's autotune picks a different kernel than yesterday's.
		choice := tel.Registry().GaugeVec("drainnet_kernel_choice",
			"Conv kernel serving each autotuned layer (1 = chosen), by batch bucket.",
			"layer", "batch", "kernel")
		for _, l := range kernels {
			choice.With(l.Name, "1", l.Batch1).Set(1)
			choice.With(l.Name, "n", l.BatchN).Set(1)
		}
	}
	return s, nil
}

// Pool exposes the underlying replica pool (stats, direct submission).
func (s *Server) Pool() *batcher.Pool { return s.pool }

// Telemetry exposes the server's observability hub (registry, span
// pipeline, sampled traces).
func (s *Server) Telemetry() *telemetry.Telemetry { return s.tel }

// Sweeps exposes the sweep job manager (status, direct job control).
func (s *Server) Sweeps() *sweep.Manager { return s.sweeps }

// BeginDrain marks the server as draining: /v1/healthz readiness flips
// to 503 so load balancers stop sending new work, while every other
// route keeps serving in-flight traffic. Call it when the shutdown
// signal arrives, before stopping the HTTP listener; Close calls it too.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports whether a graceful shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// Close drains the server: sweep jobs checkpoint and stop first (they
// are pool clients), then the inference pool drains — queued requests
// finish, new ones are refused — then the telemetry pipeline stops (its
// registry stays readable). Call after the HTTP listener stops accepting
// connections. Checkpointed sweep jobs resume on the next start.
func (s *Server) Close() {
	s.BeginDrain()
	s.sweeps.Close()
	s.pool.Close()
	s.tel.Close()
}

// Handler returns the HTTP routes. Every route is wrapped with request
// counting and duration metrics (drainnet_http_requests_total,
// drainnet_http_request_duration_seconds) labeled by route pattern.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	handle := func(pattern string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, s.instrument(pattern, h))
	}
	handle("/healthz", s.handleHealth)
	handle("/v1/healthz", method(http.MethodGet, s.handleHealthV1))
	handle("/v1/control/batching", method(http.MethodPost, s.handleControlBatching))
	handle("/v1/model", method(http.MethodGet, s.handleModel))
	handle("/v1/stats", method(http.MethodGet, s.handleStats))
	handle("/v1/metrics", method(http.MethodGet, s.handleMetrics))
	handle("/v1/trace", method(http.MethodGet, s.handleTrace))
	handle("/v1/detect", method(http.MethodPost, s.handleDetect))
	handle("/v1/detect/batch", method(http.MethodPost, s.handleDetectBatch))
	handle("/v1/sweep", s.handleSweepCollection)
	handle("/v1/sweep/", s.handleSweepJob)
	if s.opts.EnablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	// Everything else gets the JSON envelope, not the mux's text 404.
	mux.HandleFunc("/", s.instrument("other", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, &apiError{Status: http.StatusNotFound, Code: CodeNotFound,
			Message: "no such route: " + r.URL.Path})
	}))
	return mux
}

// instrument wraps a handler with per-route HTTP metrics. The route
// label is the registered pattern, not the raw path, so cardinality
// stays bounded.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	requests := s.httpRequests
	duration := s.httpDuration.With(route)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h(sw, r)
		requests.With(route, strconv.Itoa(sw.status)).Inc()
		duration.Observe(time.Since(start).Seconds())
	}
}

// statusWriter captures the response status for the HTTP metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, `{"status":"ok"}`)
}

// HealthStatus is the GET /v1/healthz body: liveness is implied by any
// response; Ready distinguishes "accepting new work" from "draining in-
// flight work" (status 200 vs 503), which is what an orchestrator's
// readiness probe and the cluster router's routing decision need.
type HealthStatus struct {
	// Status is "ready" or "draining".
	Status string `json:"status"`
	// Accepting reports whether the inference pool still admits new
	// submissions. It trails Status: a drain flips Status first, and
	// Accepting flips once the pool itself closes.
	Accepting bool `json:"accepting"`
}

// handleHealthV1 is the combined liveness+readiness probe: 200 while the
// server accepts new work, 503 once a drain has begun (in-flight
// requests still complete). Any response at all proves liveness.
func (s *Server) handleHealthV1(w http.ResponseWriter, r *http.Request) {
	h := HealthStatus{Status: "ready", Accepting: s.pool.Accepting()}
	code := http.StatusOK
	if s.draining.Load() || !h.Accepting {
		h.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, h)
}

// BatchingControl is the POST /v1/control/batching payload and response:
// the worker's effective max-batch. On request, a zero/omitted MaxBatch
// keeps the current value; the response carries the resolved (clamped)
// setting. This is the control surface the router's adaptive batching
// controller retunes workers through.
type BatchingControl struct {
	MaxBatch int `json:"max_batch"`
}

func (s *Server) handleControlBatching(w http.ResponseWriter, r *http.Request) {
	var req BatchingControl
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxControlBody)).Decode(&req); err != nil {
		writeError(w, bodyError(err))
		return
	}
	if req.MaxBatch < 0 {
		writeError(w, badRequest(CodeInvalidRequest, "max_batch must be ≥ 0 (0 keeps the current value)"))
		return
	}
	writeJSON(w, http.StatusOK, BatchingControl{MaxBatch: s.pool.Retune(req.MaxBatch)})
}

func (s *Server) handleModel(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Model())
}

// Model describes the served model as GET /v1/model reports it.
func (s *Server) Model() ModelInfo {
	popts := s.pool.Options()
	info := ModelInfo{
		Name:      s.cfg.Name,
		Notation:  s.cfg.Notation(),
		InBands:   s.cfg.InBands,
		ClipSize:  s.cfg.InSize,
		Params:    s.params,
		Threshold: s.threshold,
		Replicas:  popts.Replicas,
		MaxBatch:  popts.MaxBatch,
		Precision: string(popts.Plan.Precision),
		Kernels:   popts.Plan.KernelReport(),
		ISA:       tensor.KernelISA(),
		DecodeISA: decodeISA(),
	}
	if popts.Plan.Kernels != nil {
		info.KernelDemotions = popts.Plan.Kernels.Demotions
	}
	if plan := popts.Plan.Dynamic; plan != nil {
		d := &DynamicInfo{
			ExitEnabled:   plan.ExitEnabled,
			MaskEnabled:   plan.MaskEnabled,
			RouterEnabled: plan.RouterEnabled,
			Demotions:     plan.Demotions,
			FP32AP:        plan.FP32AP,
			DynamicAP:     plan.DynamicAP,
			APDrop:        plan.Drop,
			Epsilon:       plan.Epsilon,
			CalibExitRate: plan.ExitRate,
			CalibMaskRate: plan.MaskRate,
		}
		if plan.ExitEnabled && plan.Exit != nil {
			d.ExitThreshold = float64(plan.Exit.Threshold)
		}
		if plan.MaskEnabled {
			d.MaskThreshold = float64(plan.MaskThreshold)
		}
		info.Dynamic = d
	}
	return info
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.pool.Stats())
}

// handleMetrics exposes the telemetry registry: Prometheus text by
// default, the JSON snapshot with ?format=json (items-enveloped like
// every /v1 collection).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.tel.RecordRuntime() // refresh Go heap/GC gauges at scrape time
	if r.URL.Query().Get("format") == "json" {
		writeJSON(w, http.StatusOK, items(s.tel.Registry().Snapshot()))
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.tel.Registry().WritePrometheus(w)
}

// handleTrace serves the most recent sampled request span as Chrome
// trace JSON (open at chrome://tracing or ui.perfetto.dev).
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id, trace := s.tel.LatestTrace()
	if trace == nil {
		writeError(w, &apiError{Status: http.StatusNotFound, Code: CodeNotFound,
			Message: "no sampled trace captured yet (is -trace-sample enabled?)"})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Drainnet-Request-Id", strconv.FormatUint(id, 10))
	// The stored trace is a bare Chrome-trace event array; wrap it in the
	// (equally valid) object form so no /v1 endpoint emits a bare array.
	_, _ = w.Write([]byte(`{"traceEvents":`))
	_, _ = w.Write(trace)
	_, _ = w.Write([]byte("}\n"))
}

// readClips reads a clip route's body, capped at limit, into a pooled
// decoder. The caller releases the decoder unless the pool reports a clip
// abandoned: a replica may yet read the tensor that views its storage.
func (s *Server) readClips(w http.ResponseWriter, r *http.Request, limit int64) (*clipDecoder, *apiError) {
	if r.ContentLength > limit {
		return nil, bodyError(&http.MaxBytesError{Limit: limit})
	}
	d := clipDecoders.Get().(*clipDecoder)
	if err := d.read(http.MaxBytesReader(w, r.Body, limit), r.ContentLength); err != nil {
		d.release()
		return nil, bodyError(err)
	}
	return d, nil
}

// bodyError maps a failure to read or decode a request body: 413 when
// the route's cap cut it off, 400 bad_json otherwise.
func bodyError(err error) *apiError {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return &apiError{Status: http.StatusRequestEntityTooLarge, Code: CodePayloadTooLarge,
			Message: fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit)}
	}
	return badRequest(CodeBadJSON, "bad JSON: "+err.Error())
}

// scanError reports where the clip scanner refused a body.
func scanError(d *clipDecoder) *apiError {
	return badRequest(CodeBadJSON, fmt.Sprintf(
		"bad JSON: syntax error, wrong type or number out of range at byte %d", d.errAt))
}

// scanDetect decodes and checks the /v1/detect body d holds; the clip
// is d.items[0].
func (s *Server) scanDetect(d *clipDecoder) *apiError {
	if !d.decodeDetect() {
		return scanError(d)
	}
	return s.checkClip(&d.items[0])
}

// scanBatch decodes the /v1/detect/batch body d holds and applies the
// batch-level checks; the clips, still to be checked one by one, are
// d.items[:d.count].
func (s *Server) scanBatch(d *clipDecoder) *apiError {
	switch {
	case !d.decodeBatch():
		return scanError(d)
	case d.count == 0:
		return badRequest(CodeInvalidRequest, `empty batch ("items" missing or empty)`)
	case d.count > maxBatchItems:
		return badRequest(CodeInvalidRequest,
			fmt.Sprintf("batch of %d exceeds limit %d", d.count, maxBatchItems))
	}
	return nil
}

func (s *Server) handleDetect(w http.ResponseWriter, r *http.Request) {
	id := s.tel.NextRequestID()
	s.tel.Emit(telemetry.Event{Kind: telemetry.EvAccepted, Req: id, At: time.Now()})
	defer func() {
		s.tel.Emit(telemetry.Event{Kind: telemetry.EvResponseWritten, Req: id, At: time.Now()})
	}()
	d, e := s.readClips(w, r, maxClipBody)
	if e != nil {
		writeError(w, e)
		return
	}
	if e := s.scanDetect(d); e != nil {
		d.release()
		writeError(w, e)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.opts.RequestTimeout)
	defer cancel()
	clip := [1]batcher.Clip{{Ctx: telemetry.WithRequestID(ctx, id), X: d.tensor(&d.items[0])}}
	s.pool.SubmitAll(clip[:])
	if !clip[0].Abandoned {
		d.release()
	}
	if err := clip[0].Err; err != nil {
		writeError(w, s.poolError(err))
		return
	}
	writeJSON(w, http.StatusOK, s.hit(clip[0].Det))
}

func (s *Server) handleDetectBatch(w http.ResponseWriter, r *http.Request) {
	accepted := time.Now()
	d, e := s.readClips(w, r, maxBatchBody)
	if e != nil {
		writeError(w, e)
		return
	}
	if e := s.scanBatch(d); e != nil {
		d.release()
		writeError(w, e)
		return
	}
	// Check positionally, then submit the valid items as one unit, so an
	// idle replica finds them together and they share forward passes. Each
	// valid item is its own telemetry span, opened when the request arrived
	// so that it covers the decode; the response-written event lands after
	// the whole batch response is serialized.
	ctx, cancel := context.WithTimeout(r.Context(), s.opts.RequestTimeout)
	defer cancel()
	items := make([]BatchItem, d.count)
	ids := make([]uint64, d.count) // 0: the item failed its check
	clips := make([]batcher.Clip, 0, d.count)
	for i := range items {
		it := &d.items[i]
		if e := s.checkClip(it); e != nil {
			items[i].Error = itemError(i, e)
			continue
		}
		ids[i] = s.tel.NextRequestID()
		s.tel.Emit(telemetry.Event{Kind: telemetry.EvAccepted, Req: ids[i], At: accepted})
		clips = append(clips, batcher.Clip{Ctx: telemetry.WithRequestID(ctx, ids[i]), X: d.tensor(it)})
	}
	s.pool.SubmitAll(clips)
	abandoned := false
	for i, next := 0, 0; i < len(items); i++ {
		if ids[i] == 0 {
			continue
		}
		clip := &clips[next]
		next++
		abandoned = abandoned || clip.Abandoned
		if clip.Err != nil {
			items[i].Error = itemError(i, s.poolError(clip.Err))
			continue
		}
		items[i].Result = s.hit(clip.Det)
	}
	if !abandoned {
		d.release()
	}
	writeJSON(w, http.StatusOK, BatchResponse{Items: items})
	now := time.Now()
	for _, id := range ids {
		if id != 0 {
			s.tel.Emit(telemetry.Event{Kind: telemetry.EvResponseWritten, Req: id, At: now})
		}
	}
}

// itemError is e as the positional error of batch item i.
func itemError(i int, e *apiError) *ErrorBody {
	return &ErrorBody{Code: e.Code, Message: fmt.Sprintf("item %d: %s", i, e.Message)}
}

// checkClip applies the request schema to a decoded clip: band count,
// positive and sufficient dims, pixel count = bands·size², finite pixels.
func (s *Server) checkClip(it *clipItem) *apiError {
	if it.bands != s.cfg.InBands {
		return badRequest(CodeInvalidRequest,
			fmt.Sprintf("model expects %d bands, got %d", s.cfg.InBands, it.bands))
	}
	if it.size <= 0 {
		return badRequest(CodeInvalidRequest, fmt.Sprintf("non-positive size %d", it.size))
	}
	if it.size < minClipSize {
		return badRequest(CodeInvalidRequest,
			fmt.Sprintf("clip size %d below minimum %d", it.size, minClipSize))
	}
	// bands·size² must not wrap: a size of 2^31 at 4 bands would expect
	// 0 pixels and let an empty clip through to a replica.
	if it.size > math.MaxInt/it.bands/it.size {
		return badRequest(CodeInvalidRequest, fmt.Sprintf("clip size %d too large", it.size))
	}
	if want := it.bands * it.size * it.size; it.n != want {
		return badRequest(CodeInvalidRequest,
			fmt.Sprintf("expected %d pixels (bands·size²), got %d", want, it.n))
	}
	if it.nonFinite != 0 {
		return badRequest(CodeInvalidRequest, fmt.Sprintf("pixel %d is not finite", it.nonFinite-1))
	}
	return nil
}

// hit is a pool detection in the response schema. SPP-Net accepts any
// clip size ≥ minClipSize, so the clip need not have had the training size.
func (s *Server) hit(det metrics.Detection) *Hit {
	box := det.Box
	return &Hit{
		Score:     det.Score,
		Box:       &box,
		HasObject: det.Score >= s.threshold,
	}
}

// poolError maps a batcher error to an HTTP status + envelope, attaching
// Retry-After guidance for load shedding.
func (s *Server) poolError(err error) *apiError {
	switch {
	case errors.Is(err, batcher.ErrQueueFull):
		return &apiError{Status: http.StatusTooManyRequests, Code: CodeQueueFull,
			Message:    "request queue full; retry after backoff",
			RetryAfter: s.retryAfterSeconds()}
	case errors.Is(err, batcher.ErrClosed):
		return &apiError{Status: http.StatusServiceUnavailable, Code: CodeUnavailable,
			Message: "server is draining"}
	case errors.Is(err, context.DeadlineExceeded):
		return &apiError{Status: http.StatusGatewayTimeout, Code: CodeTimeout,
			Message: "request timed out"}
	case errors.Is(err, context.Canceled):
		return &apiError{Status: http.StatusServiceUnavailable, Code: CodeCanceled,
			Message: "request canceled"}
	default:
		return &apiError{Status: http.StatusInternalServerError, Code: CodeInternal,
			Message: err.Error()}
	}
}

// retryAfterSeconds suggests a Retry-After for 429s from the live
// queue-wait distribution (see retryAfterFrom).
func (s *Server) retryAfterSeconds() string {
	p95, _ := s.tel.QueueWaitQuantile(0.95)
	return retryAfterFrom(p95)
}

// retryAfterFrom derives the Retry-After header value: a queue drains
// roughly QueueSize·p95 waits, so the p95 queue wait (0 while none has
// been observed) times a settling factor (4) is when capacity
// realistically frees up. Always ≥ 1 whole second (the header's
// resolution), rounded up.
func retryAfterFrom(p95 float64) string {
	return strconv.Itoa(max(1, int(math.Ceil(p95*4))))
}
