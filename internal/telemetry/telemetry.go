// Package telemetry is drainnet's always-on serving observability
// subsystem. It gives the production serving path the same visibility
// the paper's §7 Nsight profiles give offline inference, in three
// layers:
//
//  1. A metrics registry (registry.go): lock-free atomic counters,
//     gauges, and fixed-bucket histograms with label support, exposable
//     as Prometheus text or JSON. The registry is always on — recording
//     costs a few atomic operations (see BenchmarkRegistry*).
//  2. A span pipeline (events.go, span.go): instrumentation points emit
//     typed events (request accepted, enqueued, batch formed, replica
//     dispatch, stage run, response written) into a bounded
//     ring; a consumer goroutine assembles them into per-request spans
//     and an aggregator folds the spans into registry histograms
//     (decode, queue-wait, batch-assembly, inference, serialization). The shape
//     follows datadog-agent's GPU package: event stream → stream
//     handler → aggregator → metrics.
//  3. Trace sampling (trace.go): 1-in-N request spans are exported in
//     Chrome trace-event JSON via gpu.WriteChromeTrace, so a
//     production request opens in the same chrome://tracing view as an
//     offline drainnet-profile capture.
//
// The event path never blocks the serving hot path: when the ring is
// full, events are dropped and counted (drainnet_telemetry_events_
// dropped_total) instead of stalling a request.
package telemetry

import (
	"sync"
	"sync/atomic"
	"time"
)

// TimeBuckets is the default histogram bucket layout for durations in
// seconds, spanning 1 µs (serialization of a small response) to 10 s
// (a request that waited out a deep queue).
var TimeBuckets = []float64{
	1e-6, 1e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Options configures a Telemetry instance. The zero value enables the
// span pipeline with a 4096-event ring and no trace sampling.
type Options struct {
	// BufferSize bounds the event ring (default 4096). A full ring drops
	// events (counted) rather than blocking emitters.
	BufferSize int
	// SampleEvery exports every N-th request's span as a Chrome trace
	// (request IDs divisible by N). 0 disables trace sampling.
	SampleEvery int
	// TraceSink receives each sampled span and its Chrome trace JSON.
	// Nil keeps only the most recent trace in memory (LatestTrace).
	// FileSink writes one file per trace.
	TraceSink func(s *Span, trace []byte)
	// MaxPendingSpans caps the number of in-flight span assemblies
	// (default 4096); the oldest is evicted beyond that.
	MaxPendingSpans int
	// Registry lets callers share a registry; nil creates a fresh one.
	Registry *Registry
	// ConstLabels tags every exported sample with process-wide labels
	// (e.g. worker="3" on a router-spawned worker). Applied to the
	// registry via SetConstLabels; exposition-time only, so the lock-free
	// record path is unaffected.
	ConstLabels map[string]string
}

func (o Options) withDefaults() Options {
	if o.BufferSize <= 0 {
		o.BufferSize = 4096
	}
	if o.MaxPendingSpans <= 0 {
		o.MaxPendingSpans = 4096
	}
	if o.Registry == nil {
		o.Registry = NewRegistry()
	}
	return o
}

// Telemetry owns one registry and (unless created with NewDisabled) one
// span-pipeline consumer goroutine. It is safe for concurrent use.
type Telemetry struct {
	opts  Options
	reg   *Registry
	reqID atomic.Uint64

	// events is the bounded ring between emitters and the consumer; nil
	// when the pipeline is disabled (registry-only mode).
	events    chan Event
	gate      emitGate
	done      chan struct{}
	published atomic.Uint64
	processed atomic.Uint64

	// Pipeline-owned metrics.
	dropped         *Counter
	spans           *Counter
	spansIncomplete *Counter
	spansEvicted    *Counter
	traces          *Counter
	decode          *Histogram
	queueWait       *Histogram
	batchAssembly   *Histogram
	inference       *Histogram
	serialization   *Histogram
	stageRun        *Histogram

	lastTrace struct {
		mu   sync.Mutex
		id   uint64
		json []byte
	}
}

// New creates a Telemetry with a running span pipeline.
func New(opts Options) *Telemetry {
	t := newCore(opts)
	t.events = make(chan Event, t.opts.BufferSize)
	t.done = make(chan struct{})
	go t.run()
	return t
}

// NewDisabled creates a registry-only Telemetry: Emit is a no-op, no
// goroutine runs, and metrics recorded directly against the registry
// (counters, serving stats) still work. This is the fallback for
// components handed no telemetry by their caller.
func NewDisabled() *Telemetry {
	return newCore(Options{})
}

func newCore(opts Options) *Telemetry {
	opts = opts.withDefaults()
	if len(opts.ConstLabels) > 0 {
		opts.Registry.SetConstLabels(opts.ConstLabels)
	}
	t := &Telemetry{opts: opts, reg: opts.Registry}
	t.dropped = t.reg.Counter("drainnet_telemetry_events_dropped_total",
		"Telemetry events dropped because the ring buffer was full.")
	t.spans = t.reg.Counter("drainnet_spans_total",
		"Request spans assembled by the telemetry pipeline.")
	t.spansIncomplete = t.reg.Counter("drainnet_spans_incomplete_total",
		"Spans finalized without an inference result (rejected, canceled, or invalid requests).")
	t.spansEvicted = t.reg.Counter("drainnet_spans_evicted_total",
		"Pending span assemblies evicted because the assembly table was full.")
	t.traces = t.reg.Counter("drainnet_traces_sampled_total",
		"Sampled request spans exported as Chrome traces.")
	t.decode = t.reg.Histogram("drainnet_decode_seconds",
		"Time between HTTP admission and the batcher queue: body read, JSON decode and validation.", TimeBuckets)
	t.queueWait = t.reg.Histogram("drainnet_queue_wait_seconds",
		"Time a request spent queued before its batch was sealed.", TimeBuckets)
	t.batchAssembly = t.reg.Histogram("drainnet_batch_assembly_seconds",
		"Time between a batch being sealed and a replica starting it.", TimeBuckets)
	t.inference = t.reg.Histogram("drainnet_inference_seconds",
		"Replica forward-pass time, dispatch to result delivery.", TimeBuckets)
	t.serialization = t.reg.Histogram("drainnet_serialization_seconds",
		"Time between result delivery and the HTTP response being written.", TimeBuckets)
	t.stageRun = t.reg.Histogram("drainnet_stage_run_seconds",
		"Stage execution time in sampled forward passes.", TimeBuckets)
	return t
}

// Registry returns the metrics registry (always usable, even disabled).
func (t *Telemetry) Registry() *Registry { return t.reg }

// Enabled reports whether the span pipeline is running.
func (t *Telemetry) Enabled() bool { return t.events != nil }

// QueueWaitQuantile estimates the q-th quantile of observed request
// queue-wait time in seconds. ok is false until at least one request has
// been through the queue — callers should fall back to a static guess.
// This feeds live Retry-After guidance on 429 responses.
func (t *Telemetry) QueueWaitQuantile(q float64) (secs float64, ok bool) {
	s := t.queueWait.Snapshot()
	if s.Count == 0 {
		return 0, false
	}
	return s.Quantile(q), true
}

// NextRequestID allocates a process-unique request ID (starting at 1).
func (t *Telemetry) NextRequestID() uint64 { return t.reqID.Add(1) }

// Sampling reports whether any request can fall in the trace sample.
func (t *Telemetry) Sampling() bool { return t.events != nil && t.opts.SampleEvery > 0 }

// Sampled reports whether the request ID falls in the 1-in-N trace
// sample.
func (t *Telemetry) Sampled(id uint64) bool {
	return t.Sampling() && id%uint64(t.opts.SampleEvery) == 0
}

// Emit publishes one event to the span pipeline. It never blocks: with
// the ring full the event is dropped and counted; with the pipeline
// disabled or closed it is a no-op.
func (t *Telemetry) Emit(e Event) {
	if t.events == nil {
		return
	}
	if !t.gate.enter() {
		return
	}
	select {
	case t.events <- e:
		t.published.Add(1)
	default:
		t.dropped.Inc()
	}
	t.gate.leave()
}

// Flush blocks until every event published before the call has been
// consumed and folded into the registry. Intended for tests and
// scrape-time consistency; returns immediately when disabled.
func (t *Telemetry) Flush() {
	if t.events == nil {
		return
	}
	target := t.published.Load()
	for t.processed.Load() < target {
		select {
		case <-t.done:
			return
		default:
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// Close drains the ring and stops the consumer. Emit becomes a no-op;
// the registry stays readable. Close is idempotent.
func (t *Telemetry) Close() {
	if t.events == nil {
		return
	}
	if t.gate.close() {
		close(t.events)
	}
	<-t.done
}

// emitGate lets many emitters send concurrently while Close atomically
// flips to closed once no emitter is mid-send, so closing the ring
// channel cannot race a send.
type emitGate struct {
	mu     sync.RWMutex
	closed bool
}

func (g *emitGate) enter() bool {
	g.mu.RLock()
	if g.closed {
		g.mu.RUnlock()
		return false
	}
	return true
}

func (g *emitGate) leave() { g.mu.RUnlock() }

func (g *emitGate) close() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return false
	}
	g.closed = true
	return true
}
