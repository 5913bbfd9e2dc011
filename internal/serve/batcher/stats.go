package batcher

import (
	"strconv"
	"sync"
	"time"

	"drainnet/internal/model"
	"drainnet/internal/telemetry"
)

// Stats is a point-in-time snapshot of pool serving statistics, shaped
// for the /v1/stats endpoint. Since PR 2 it is a *view over the
// telemetry registry* — the same counters and histograms /v1/metrics
// exports — so the two endpoints cannot drift.
type Stats struct {
	Replicas      int    `json:"replicas"`
	MaxBatch      int    `json:"max_batch"`
	QueueCapacity int    `json:"queue_capacity"`
	QueueDepth    int    `json:"queue_depth"`
	Precision     string `json:"precision"`

	// Served counts requests answered with a detection; Rejected counts
	// queue-full and pool-closed refusals; Canceled counts requests whose
	// context ended before a result was delivered.
	Served   uint64 `json:"served"`
	Rejected uint64 `json:"rejected"`
	Canceled uint64 `json:"canceled"`

	// Batches is the number of forward passes; BatchSizes[i] counts
	// batches that carried i+1 clips, so the histogram spans 1..MaxBatch.
	Batches    uint64   `json:"batches"`
	BatchSizes []uint64 `json:"batch_size_histogram"`
	// MeanBatch is Served/Batches — the realized §6.4 batch size.
	MeanBatch float64 `json:"mean_batch"`

	// PerReplica counts clips served by each replica.
	PerReplica []uint64 `json:"per_replica_served"`

	// Latency quantiles (milliseconds) estimated from the
	// drainnet_request_latency_seconds histogram, measured enqueue →
	// result delivery.
	LatencyP50Ms float64 `json:"latency_p50_ms"`
	LatencyP95Ms float64 `json:"latency_p95_ms"`
	LatencyP99Ms float64 `json:"latency_p99_ms"`

	// Dynamic-path statistics, present only when the pool serves with
	// Options.Dynamic. ExitRate is the cumulative fraction of clips
	// answered by the early-exit head; MaskRate the fraction of conv
	// output-row bands the masked kernels skipped; RoutedInt8/RoutedFP32
	// count the difficulty router's path assignments (0 without a
	// router-enabled plan).
	DynamicEnabled bool    `json:"dynamic_enabled,omitempty"`
	ExitRate       float64 `json:"exit_rate,omitempty"`
	MaskRate       float64 `json:"mask_rate,omitempty"`
	RoutedInt8     uint64  `json:"routed_int8,omitempty"`
	RoutedFP32     uint64  `json:"routed_fp32,omitempty"`
}

// statsAccum records pool activity straight into telemetry registry
// metrics. Counts are recorded synchronously on the serving path (so a
// Stats snapshot taken after Submit returns is exact); the hot path
// cost is a handful of atomic adds per batch.
type statsAccum struct {
	served      *telemetry.Counter
	rejected    *telemetry.Counter
	canceled    *telemetry.Counter
	batches     *telemetry.Counter
	batchSize   *telemetry.Histogram
	latency     *telemetry.Histogram
	queueDepth  *telemetry.Gauge
	retunes     *telemetry.Counter
	effMaxBatch *telemetry.Gauge
	perReplica  []*telemetry.Counter

	// Dynamic-path metrics (nil when Options.Dynamic is off). latInt8 is
	// the int8-path child of the same precision-labeled latency
	// histogram, so the two routed paths are separate /v1/metrics series.
	latInt8    *telemetry.Histogram
	routedFP32 *telemetry.Counter
	routedInt8 *telemetry.Counter
	exitRate   *telemetry.Gauge
	maskRate   *telemetry.Gauge

	replicas, maxBatch, queueCap int
	precision                    string
	dynamic                      bool
}

func newStatsAccum(opts Options) *statsAccum {
	reg := opts.Telemetry.Registry()
	sizeBounds := make([]float64, opts.MaxBatch)
	for i := range sizeBounds {
		sizeBounds[i] = float64(i + 1)
	}
	latVec := reg.HistogramVec("drainnet_request_latency_seconds",
		"Request latency, enqueue to result delivery, by serving precision.",
		telemetry.TimeBuckets, "precision")
	s := &statsAccum{
		served: reg.Counter("drainnet_requests_served_total",
			"Requests answered with a detection."),
		rejected: reg.Counter("drainnet_requests_rejected_total",
			"Requests refused: queue full or pool closed."),
		canceled: reg.Counter("drainnet_requests_canceled_total",
			"Requests whose context ended before a result was delivered."),
		batches: reg.Counter("drainnet_batches_total",
			"Forward passes executed by the replica pool."),
		batchSize: reg.Histogram("drainnet_batch_size",
			"Clips coalesced into one forward pass (the realized §6.4 batch size).", sizeBounds),
		// Labeled by serving precision, so an fp32 pool and an int8 pool
		// (or an A/B rollout across restarts) produce separate series.
		latency: latVec.With(string(opts.Plan.Precision)),
		queueDepth: reg.Gauge("drainnet_queue_depth",
			"Requests accepted and not yet handed to a replica."),
		retunes: reg.Counter("drainnet_retunes_total",
			"Batching retunes applied via Pool.Retune (adaptive batching controller)."),
		effMaxBatch: reg.Gauge("drainnet_effective_max_batch",
			"Effective max clips per forward pass (starts at the -max-batch flag, moves under retune)."),
		replicas:  opts.Replicas,
		maxBatch:  opts.MaxBatch,
		queueCap:  opts.QueueSize,
		precision: string(opts.Plan.Precision),
	}
	vec := reg.CounterVec("drainnet_replica_served_total",
		"Clips served, by replica.", "replica")
	s.perReplica = make([]*telemetry.Counter, opts.Replicas)
	for i := range s.perReplica {
		s.perReplica[i] = vec.With(strconv.Itoa(i))
	}
	if opts.Plan.Dynamic != nil {
		s.dynamic = true
		routed := reg.CounterVec("drainnet_routed_total",
			"Clips assigned to a serving path by the difficulty router.", "path")
		s.routedFP32 = routed.With(string(model.PrecisionFP32))
		s.routedInt8 = routed.With(string(model.PrecisionInt8))
		s.latInt8 = latVec.With(string(model.PrecisionInt8))
		s.exitRate = reg.Gauge("drainnet_exit_rate",
			"Cumulative fraction of clips answered by the early-exit head.")
		s.maskRate = reg.Gauge("drainnet_masked_block_rate",
			"Cumulative fraction of conv output-row bands skipped by spatial masking.")
	}
	return s
}

func (s *statsAccum) reject() { s.rejected.Inc() }

func (s *statsAccum) cancel() { s.canceled.Inc() }

// retune records one applied retune and publishes the resolved cap as a
// gauge, so the router's scrape and a dashboard read the same setting.
func (s *statsAccum) retune(maxBatch int) {
	s.retunes.Inc()
	s.effMaxBatch.Set(float64(maxBatch))
}

// record logs one completed batch of n clips on the given replica.
// Under dynamic routing the batch's latencies land in its path's
// histogram child; everything else stays aggregate.
func (s *statsAccum) record(replica, n int, lats []time.Duration, path model.Precision) {
	s.served.Add(uint64(n))
	s.batches.Inc()
	s.batchSize.Observe(float64(n))
	if replica >= 0 && replica < len(s.perReplica) {
		s.perReplica[replica].Add(uint64(n))
	}
	lat := s.latency
	if path == model.PrecisionInt8 && s.latInt8 != nil {
		lat = s.latInt8
	}
	for _, d := range lats {
		lat.Observe(d.Seconds())
	}
}

// route counts one difficulty-router path assignment.
func (s *statsAccum) route(path model.Precision) {
	switch path {
	case model.PrecisionInt8:
		if s.routedInt8 != nil {
			s.routedInt8.Inc()
		}
	default:
		if s.routedFP32 != nil {
			s.routedFP32.Inc()
		}
	}
}

// setDynamicRates publishes the plan's cumulative exit and mask rates
// as gauges after each batch, so a scrape reads current values.
func (s *statsAccum) setDynamicRates(exit, mask float64) {
	if s.exitRate != nil {
		s.exitRate.Set(exit)
		s.maskRate.Set(mask)
	}
}

// snapshot reads the registry; queueDepth is the pool's waiting count,
// which the drainnet_queue_depth gauge follows step for step.
func (s *statsAccum) snapshot(queueDepth int) Stats {
	st := Stats{
		Replicas:      s.replicas,
		MaxBatch:      s.maxBatch,
		QueueCapacity: s.queueCap,
		QueueDepth:    queueDepth,
		Precision:     s.precision,
		Served:        s.served.Value(),
		Rejected:      s.rejected.Value(),
		Canceled:      s.canceled.Value(),
		Batches:       s.batches.Value(),
		BatchSizes:    make([]uint64, s.maxBatch),
		PerReplica:    make([]uint64, len(s.perReplica)),
	}
	// Bucket bounds are exactly 1..MaxBatch, so per-bucket counts are
	// exact per-size counts (batch sizes are integers).
	sizes := s.batchSize.Snapshot()
	for i := range st.BatchSizes {
		if i < len(sizes.Counts) {
			st.BatchSizes[i] = sizes.Counts[i]
		}
	}
	for i, c := range s.perReplica {
		st.PerReplica[i] = c.Value()
	}
	if st.Batches > 0 {
		st.MeanBatch = float64(st.Served) / float64(st.Batches)
	}
	lat := s.latency.Snapshot()
	if lat.Count > 0 {
		st.LatencyP50Ms = lat.Quantile(0.50) * 1000
		st.LatencyP95Ms = lat.Quantile(0.95) * 1000
		st.LatencyP99Ms = lat.Quantile(0.99) * 1000
	}
	if s.dynamic {
		st.DynamicEnabled = true
		st.ExitRate = s.exitRate.Value()
		st.MaskRate = s.maskRate.Value()
		st.RoutedFP32 = s.routedFP32.Value()
		st.RoutedInt8 = s.routedInt8.Value()
	}
	return st
}

// closeGate lets many submitters enter concurrently while letting Close
// atomically flip to closed once no submitter is mid-send, so closing the
// queue channel cannot race a send.
type closeGate struct {
	mu     sync.RWMutex
	closed bool
}

// enter returns false if the gate is closed; on true the caller must call
// leave after its queue send.
func (g *closeGate) enter() bool {
	g.mu.RLock()
	if g.closed {
		g.mu.RUnlock()
		return false
	}
	return true
}

func (g *closeGate) leave() { g.mu.RUnlock() }

// close flips the gate; it returns true on the first call.
func (g *closeGate) close() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return false
	}
	g.closed = true
	return true
}

// isClosed reports whether the gate has flipped (the pool is draining).
func (g *closeGate) isClosed() bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.closed
}
