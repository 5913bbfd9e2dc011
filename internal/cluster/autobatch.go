package cluster

import (
	"log"
	"math"
	"time"
)

// AutoBatchConfig configures the adaptive batching controller: instead
// of serving forever with the static -max-batch flag each worker started
// with, the router retunes every worker's *effective* max-batch from its
// live latency quantiles (the §6.4 trade-off, closed-loop). The zero
// value disables the controller.
type AutoBatchConfig struct {
	// Enabled turns the controller on.
	Enabled bool
	// Interval is the control period (default 1s).
	Interval time.Duration
	// TargetP95 is the per-worker request-latency SLO the controller
	// steers to (default 250ms).
	TargetP95 time.Duration
}

func (c AutoBatchConfig) withDefaults() AutoBatchConfig {
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	if c.TargetP95 <= 0 {
		c.TargetP95 = 250 * time.Millisecond
	}
	return c
}

// BatchObs is what the controller sees of one worker at a control tick,
// all read from the worker's own /v1/metrics scrape.
type BatchObs struct {
	// P95 is the request-latency p95 in seconds; OK is false until the
	// worker has served enough to estimate it.
	P95 float64
	OK  bool
	// QueueDepth is the scraped drainnet_queue_depth gauge — demand
	// waiting behind busy replicas, which bigger batches would absorb.
	QueueDepth int64
	// MaxBatchCeiling is the worker's configured -max-batch (the clamp
	// the worker enforces on retunes).
	MaxBatchCeiling int
}

// NextTuning is the control law over a worker's effective max-batch,
// pure so it table-tests directly. Multiplicative decrease, additive
// increase:
//
//   - p95 over target → halve it: smaller batches turn over sooner, which
//     cuts queueing delay the fastest.
//   - p95 under half the target with queued demand → one more clip per
//     batch: grow throughput while latency headroom is provable.
//   - otherwise (in the comfort band, or no demand) → hold.
//
// The result stays within [1, the worker's ceiling].
func NextTuning(cur int, obs BatchObs, cfg AutoBatchConfig) int {
	cfg = cfg.withDefaults()
	next := cur
	if obs.OK {
		target := cfg.TargetP95.Seconds()
		switch {
		case obs.P95 > target:
			next = cur / 2
		case obs.P95 < target/2 && obs.QueueDepth > 0:
			next = cur + 1
		}
	}
	ceil := obs.MaxBatchCeiling
	if ceil <= 0 {
		ceil = math.MaxInt32
	}
	return max(1, min(next, ceil))
}

// runAutoBatch is the router's control loop: each tick, derive every
// ready worker's observation from its latest scrape and push a retune
// when the law moves the knobs.
func (rt *Router) runAutoBatch() {
	defer rt.loopsWG.Done()
	cfg := rt.cfg.AutoBatch.withDefaults()
	tick := time.NewTicker(cfg.Interval)
	defer tick.Stop()
	for {
		select {
		case <-rt.stopCh:
			return
		case <-tick.C:
		}
		for _, w := range rt.sup.workers {
			if !w.routable() {
				continue
			}
			cur := int(w.curMaxBatch.Load())
			p95 := float64FromBits(w.latencyP95.Load())
			obs := BatchObs{
				P95:             p95,
				OK:              p95 > 0,
				QueueDepth:      w.queueDepth.Load(),
				MaxBatchCeiling: int(w.maxBatchCeil.Load()),
			}
			next := NextTuning(cur, obs, cfg)
			if next == cur {
				continue
			}
			_, _, client := w.snapshot()
			mb, err := client.retune(next)
			if err != nil {
				log.Printf("level=warn msg=retune_failed worker=%d err=%q", w.id, err)
				continue
			}
			w.curMaxBatch.Store(int64(mb))
			rt.retunes.Inc()
			log.Printf("level=info msg=retune worker=%d p95_ms=%.2f queue=%d max_batch=%d",
				w.id, obs.P95*1e3, obs.QueueDepth, mb)
		}
	}
}
