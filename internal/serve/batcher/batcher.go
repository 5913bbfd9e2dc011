// Package batcher implements batched, multi-replica inference serving.
//
// The paper's efficiency metric is latency per image *at a batch size*
// (§6.4): a served model only realizes the batched efficiency the paper
// optimizes for if the serving path actually forms batches. This package
// accepts single-clip requests, coalesces them into batches (bounded by a
// maximum batch size and a maximum wait, mirroring §6.4 batch tuning),
// and dispatches the batches across a pool of N independent network
// replicas. Each replica owns its layer caches (internal/nn layers cache
// forward activations and are not safe for concurrent use), so replicas
// run truly concurrently.
//
// Backpressure is a bounded queue: when it is full, Submit fails fast
// with ErrQueueFull so the HTTP layer can answer 429 with Retry-After
// instead of letting latency grow without bound. Close drains the queue
// gracefully: everything already accepted is served, new submissions are
// refused with ErrClosed.
package batcher

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"drainnet/internal/metrics"
	"drainnet/internal/model"
	"drainnet/internal/nn"
	"drainnet/internal/telemetry"
	"drainnet/internal/tensor"
)

// Errors returned by Submit.
var (
	// ErrQueueFull means the bounded request queue is at capacity; the
	// caller should shed load (HTTP 429).
	ErrQueueFull = errors.New("batcher: request queue full")
	// ErrClosed means the pool is draining or closed.
	ErrClosed = errors.New("batcher: pool closed")
)

// Options configures a Pool. The zero value selects sensible defaults.
type Options struct {
	// Replicas is the number of independent network replicas (default
	// GOMAXPROCS). Replicas share weights but own their layer caches, so
	// they serve batches concurrently.
	Replicas int
	// MaxBatch is the largest batch a single forward pass may carry
	// (default 8). A group of same-shape requests is flushed as soon as it
	// reaches MaxBatch.
	MaxBatch int
	// MaxWait bounds how long the oldest queued request waits for its
	// batch to fill before the partial batch is flushed (default 2ms).
	// Larger values trade latency for bigger batches — the §6.4 knob.
	MaxWait time.Duration
	// QueueSize is the bounded queue capacity (default 64). When the
	// queue is full Submit returns ErrQueueFull.
	QueueSize int
	// Telemetry receives serving metrics and span events. Nil selects a
	// private registry-only instance (metrics still accumulate and feed
	// Stats; no span pipeline runs). Pools sharing one Telemetry share
	// its registry metrics.
	Telemetry *telemetry.Telemetry
	// Plan is the compiled deployment to serve (model.Compile): every
	// replica runs the Executor its NewReplica hands out, and New's net
	// must be Plan.Served. Nil compiles net as it stands — no gates, the
	// sequential fast path. Plan.Precision labels the request latency
	// histogram, so fp32 and int8 are separate series in /v1/metrics.
	Plan *model.Plan
}

func (o Options) withDefaults() Options {
	if o.Replicas <= 0 {
		o.Replicas = runtime.GOMAXPROCS(0)
	}
	if o.Telemetry == nil {
		o.Telemetry = telemetry.NewDisabled()
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 8
	}
	if o.MaxWait <= 0 {
		o.MaxWait = 2 * time.Millisecond
	}
	if o.QueueSize <= 0 {
		o.QueueSize = 64
	}
	return o
}

// request is one queued clip awaiting inference.
type request struct {
	ctx  context.Context
	x    *tensor.Tensor // 1×C×H×W
	id   uint64         // telemetry span ID
	enq  time.Time
	done chan result // buffered(1); worker always delivers
	// path is the serving precision the difficulty router assigned
	// (empty without dynamic routing). It joins the batching key, so a
	// batch never mixes paths.
	path model.Precision
}

type result struct {
	det metrics.Detection
	err error
}

// job is a flushed batch bound for a replica.
type job struct {
	reqs []*request
}

// Pool coalesces single-clip requests into batches and runs them across
// independent model replicas. Create one with New; it is safe for
// concurrent use by any number of goroutines.
type Pool struct {
	opts  Options
	queue chan *request
	work  chan *job

	// curMaxBatch/curMaxWaitNs are the *effective* batching knobs the
	// dispatcher reads each iteration. They start at the configured
	// Options values and move under Retune (the adaptive batching
	// controller's lever); Options.MaxBatch stays the hard ceiling
	// because the batch-size histogram buckets are sized from it.
	curMaxBatch  atomic.Int64
	curMaxWaitNs atomic.Int64

	// closing is closed-state coordination: Submit holds a read lock
	// across its queue send so Close can safely close(queue) once no
	// sender is in flight.
	closing closeGate

	dispatcherDone chan struct{}
	workersDone    chan struct{}

	stats *statsAccum
	tel   *telemetry.Telemetry
	reps  []*replica

	// router assigns each request a precision path (nil unless the plan
	// routes). It runs in Submit — routing must precede batching because
	// the two paths run different replica executors.
	router *model.Router
}

// replica is one serving copy of the plan plus the scratch it owns: an
// arena for all inference temporaries (including the stacked batch
// tensor), a reusable detection slice and the per-batch latency list. Weights and packed panels are
// shared with the plan's served network — a replica is scratch only.
type replica struct {
	// exec runs the main path; execInt8 the routed one (nil unless the
	// plan routes).
	exec, execInt8 model.Executor
	arena          *tensor.Arena
	dets           []metrics.Detection
	lats           []time.Duration
}

// New builds a pool of opts.Replicas replicas of net (which must have
// been built from cfg — layer kinds and shapes are checked first). The
// pool owns net and every replica cloned from it; the caller must not
// run inference on net concurrently with pool use.
func New(cfg model.Config, net *nn.Sequential, opts Options) (*Pool, error) {
	opts = opts.withDefaults()
	if err := validateConfig(cfg, net); err != nil {
		return nil, fmt.Errorf("batcher: %w", err)
	}
	if opts.Plan == nil {
		plan, err := model.Compile(cfg, net, nil, model.CompileOptions{})
		if err != nil {
			return nil, fmt.Errorf("batcher: %w", err)
		}
		opts.Plan = plan
	} else if opts.Plan.Served != net {
		return nil, errors.New("batcher: net is not Options.Plan's served network")
	}
	replicas := make([]*replica, opts.Replicas)
	for i := range replicas {
		exec, execInt8, err := opts.Plan.NewReplica()
		if err != nil {
			return nil, fmt.Errorf("batcher: replica %d: %w", i, err)
		}
		replicas[i] = &replica{exec: exec, execInt8: execInt8, arena: tensor.NewArena()}
	}
	p := &Pool{
		opts:           opts,
		queue:          make(chan *request, opts.QueueSize),
		work:           make(chan *job, opts.Replicas),
		dispatcherDone: make(chan struct{}),
		workersDone:    make(chan struct{}),
		stats:          newStatsAccum(opts),
		tel:            opts.Telemetry,
		reps:           replicas,
		router:         opts.Plan.Router,
	}
	p.curMaxBatch.Store(int64(opts.MaxBatch))
	p.curMaxWaitNs.Store(int64(opts.MaxWait))
	p.stats.setTuning(opts.MaxBatch, opts.MaxWait)
	go p.dispatch()
	go p.runWorkers(replicas)
	return p, nil
}

// validateConfig walks the network's module sequence against the layer
// sequence cfg.Build would produce, checking layer kinds, channel counts
// and geometry, so a config/network mismatch is caught at pool
// construction instead of panicking mid-inference. Quantized layers are
// unwrapped to their fp32 base first, so an int8 network validates
// against the same config it was quantized from.
func validateConfig(cfg model.Config, net *nn.Sequential) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	mods := net.Modules()
	idx := 0
	next := func() nn.Module {
		if idx >= len(mods) {
			return nil
		}
		m := mods[idx]
		idx++
		return nn.Unwrap(m)
	}
	inC := cfg.InBands
	for i, cv := range cfg.Convs {
		f := cfg.ScaledWidth(cv.Filters)
		conv, ok := next().(*nn.Conv2D)
		if !ok || conv.InC != inC || conv.OutC != f ||
			conv.Geom.KH != cv.Kernel || conv.Geom.StrideH != cv.Stride {
			return fmt.Errorf("conv block %d does not match config (want C%d→%d,%d,%d)", i, inC, f, cv.Kernel, cv.Stride)
		}
		if _, ok := next().(*nn.ReLU); !ok {
			return fmt.Errorf("conv block %d missing ReLU", i)
		}
		if cv.PoolSize > 0 {
			pool, ok := next().(*nn.MaxPool2D)
			if !ok || pool.Geom.KH != cv.PoolSize || pool.Geom.StrideH != cv.PoolStride {
				return fmt.Errorf("conv block %d missing P%d,%d", i, cv.PoolSize, cv.PoolStride)
			}
		}
		inC = f
	}
	spp, ok := next().(*nn.SPP)
	if !ok || len(spp.Levels) != len(cfg.SPPLevels) {
		return fmt.Errorf("SPP layer does not match config levels %v", cfg.SPPLevels)
	}
	for i, l := range cfg.SPPLevels {
		if spp.Levels[i] != l {
			return fmt.Errorf("SPP layer does not match config levels %v", cfg.SPPLevels)
		}
	}
	fcw := cfg.ScaledWidth(cfg.FCWidth)
	fc, ok := next().(*nn.Linear)
	if !ok || fc.In != cfg.SPPFeatures() || fc.Out != fcw {
		return fmt.Errorf("hidden FC does not match config (want %d→%d)", cfg.SPPFeatures(), fcw)
	}
	if _, ok := next().(*nn.ReLU); !ok {
		return fmt.Errorf("hidden FC missing ReLU")
	}
	head, ok := next().(*nn.Linear)
	if !ok || head.In != fcw || head.Out != cfg.HeadOut {
		return fmt.Errorf("head does not match config (want %d→%d)", fcw, cfg.HeadOut)
	}
	if idx != len(mods) {
		return fmt.Errorf("network has %d trailing modules beyond the config's architecture", len(mods)-idx)
	}
	return nil
}

// Options returns the pool's resolved configuration; Plan is never nil.
func (p *Pool) Options() Options { return p.opts }

// Accepting reports whether the pool still admits new submissions (false
// once Close has begun). The /v1/healthz readiness check reads this.
func (p *Pool) Accepting() bool { return !p.closing.isClosed() }

// Tuning returns the pool's effective batching knobs: the live values
// the dispatcher uses, which start at Options.MaxBatch/MaxWait and move
// under Retune.
func (p *Pool) Tuning() (maxBatch int, maxWait time.Duration) {
	return int(p.curMaxBatch.Load()), time.Duration(p.curMaxWaitNs.Load())
}

// retuneWaitCeiling bounds how far an adaptive controller can raise the
// flush wait: beyond this, batching stops trading latency for anything.
const retuneWaitCeiling = 100 * time.Millisecond

// Retune adjusts the effective max-batch and max-wait without restarting
// the pool — the adaptive batching controller's lever. maxBatch clamps
// to [1, Options.MaxBatch] (the configured value is the ceiling: batch
// histogram buckets and replica arenas are sized from it); maxWait
// clamps to [0, 100ms]. Values ≤ 0 for maxBatch or < 0 for maxWait keep
// the current setting. The resolved values are returned and take effect
// on the next dispatch iteration; in-flight batches are unaffected.
func (p *Pool) Retune(maxBatch int, maxWait time.Duration) (int, time.Duration) {
	changed := false
	if maxBatch > 0 {
		if maxBatch > p.opts.MaxBatch {
			maxBatch = p.opts.MaxBatch
		}
		p.curMaxBatch.Store(int64(maxBatch))
		changed = true
	}
	if maxWait >= 0 {
		if maxWait > retuneWaitCeiling {
			maxWait = retuneWaitCeiling
		}
		p.curMaxWaitNs.Store(int64(maxWait))
		changed = true
	}
	mb, mw := p.Tuning()
	if changed {
		p.stats.retune(mb, mw)
	}
	return mb, mw
}

// maxBatch/maxWait are the dispatcher's reads of the effective knobs.
func (p *Pool) maxBatch() int          { return int(p.curMaxBatch.Load()) }
func (p *Pool) maxWait() time.Duration { return time.Duration(p.curMaxWaitNs.Load()) }

// Submit enqueues one 1×C×H×W clip and blocks until its detection is
// ready, the context is done, or the pool rejects it. It is safe to call
// from many goroutines; same-shape submissions that overlap in time are
// coalesced into shared batches.
func (p *Pool) Submit(ctx context.Context, x *tensor.Tensor) (metrics.Detection, error) {
	if x == nil || x.Rank() != 4 || x.Dim(0) != 1 {
		return metrics.Detection{}, errors.New("batcher: Submit wants a 1×C×H×W tensor")
	}
	id, ok := telemetry.RequestID(ctx)
	if !ok {
		id = p.tel.NextRequestID()
	}
	req := &request{ctx: ctx, x: x, id: id, enq: time.Now(), done: make(chan result, 1)}
	if p.router != nil {
		req.path = p.router.Route(x, 0)
		p.stats.route(req.path)
	}

	if !p.closing.enter() {
		p.stats.reject()
		return metrics.Detection{}, ErrClosed
	}
	select {
	case p.queue <- req:
		p.closing.leave()
		p.stats.setQueueDepth(len(p.queue))
		p.tel.Emit(telemetry.Event{Kind: telemetry.EvEnqueued, Req: req.id, At: req.enq})
	default:
		p.closing.leave()
		p.stats.reject()
		return metrics.Detection{}, ErrQueueFull
	}

	select {
	case res := <-req.done:
		return res.det, res.err
	case <-ctx.Done():
		// Prefer a result that raced the cancellation.
		select {
		case res := <-req.done:
			return res.det, res.err
		default:
		}
		// The request stays queued; the flusher drops it when it notices
		// the dead context. The buffered done channel lets the worker
		// deliver without blocking even though nobody reads it.
		p.stats.cancel()
		return metrics.Detection{}, ctx.Err()
	}
}

// Stats returns a snapshot of serving statistics.
func (p *Pool) Stats() Stats { return p.stats.snapshot(len(p.queue)) }

// Close drains the pool: new Submits fail with ErrClosed, every request
// already accepted is served, and Close returns once all replicas are
// idle. Close is idempotent.
func (p *Pool) Close() {
	if p.closing.close() {
		close(p.queue)
	}
	<-p.dispatcherDone
	<-p.workersDone
}

// dispatch coalesces queued requests into per-shape groups and flushes a
// group when it reaches MaxBatch (full-batch flush) or when its oldest
// member has waited MaxWait (timeout flush).
func (p *Pool) dispatch() {
	defer close(p.dispatcherDone)
	defer close(p.work)

	pending := make(map[batchKey][]*request)
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()

	for {
		var timerC <-chan time.Time
		if dl, ok := p.earliestDeadline(pending); ok {
			d := time.Until(dl)
			if d <= 0 {
				p.flushDue(pending, time.Now())
				continue
			}
			timer.Reset(d)
			timerC = timer.C
		}

		select {
		case req, ok := <-p.queue:
			if timerC != nil && !timer.Stop() {
				<-timer.C
			}
			if !ok {
				for key := range pending {
					p.flushGroup(pending, key)
				}
				return
			}
			key := keyOf(req)
			pending[key] = append(pending[key], req)
			if len(pending[key]) >= p.maxBatch() {
				p.flushGroup(pending, key)
			}
		case <-timerC:
			p.flushDue(pending, time.Now())
		}
	}
}

// earliestDeadline returns the soonest flush deadline across groups.
func (p *Pool) earliestDeadline(pending map[batchKey][]*request) (time.Time, bool) {
	var dl time.Time
	found := false
	for _, reqs := range pending {
		if len(reqs) == 0 {
			continue
		}
		d := reqs[0].enq.Add(p.maxWait())
		if !found || d.Before(dl) {
			dl, found = d, true
		}
	}
	return dl, found
}

func (p *Pool) flushDue(pending map[batchKey][]*request, now time.Time) {
	for key, reqs := range pending {
		if len(reqs) > 0 && !now.Before(reqs[0].enq.Add(p.maxWait())) {
			p.flushGroup(pending, key)
		}
	}
}

// flushGroup hands a pending group to a replica, dropping requests whose
// context has already expired. The send blocks when all replicas are
// busy — that stall is the backpressure that fills the bounded queue.
func (p *Pool) flushGroup(pending map[batchKey][]*request, key batchKey) {
	reqs := pending[key]
	delete(pending, key)
	live := reqs[:0]
	for _, r := range reqs {
		if r.ctx.Err() != nil {
			// Close the span before delivering: the emit must be in the
			// ring before the waiter can emit EvResponseWritten.
			p.tel.Emit(telemetry.Event{Kind: telemetry.EvInferenceDone, Req: r.id, At: time.Now()})
			r.done <- result{err: r.ctx.Err()}
			continue
		}
		live = append(live, r)
	}
	if len(live) == 0 {
		return
	}
	if p.tel.Enabled() {
		now := time.Now()
		for _, r := range live {
			p.tel.Emit(telemetry.Event{Kind: telemetry.EvBatchFormed, Req: r.id, At: now, Batch: len(live)})
		}
	}
	p.work <- &job{reqs: live}
}

// runWorkers starts one goroutine per replica and closes workersDone when
// the last one drains.
func (p *Pool) runWorkers(replicas []*replica) {
	done := make(chan struct{}, len(replicas))
	for id, rep := range replicas {
		go func(id int, rep *replica) {
			defer func() { done <- struct{}{} }()
			for j := range p.work {
				p.runBatch(id, rep, j)
			}
		}(id, rep)
	}
	for range replicas {
		<-done
	}
	close(p.workersDone)
}

// runBatch stacks a job's clips into one N×C×H×W tensor drawn from the
// replica's arena, runs a single forward pass, and delivers per-request
// results. Untraced, the batch tensor, every layer temporary and the
// decoded detections all come from replica-owned storage, so a warm
// replica serves a batch with zero heap allocations in the model forward.
func (p *Pool) runBatch(id int, rep *replica, j *job) {
	n := len(j.reqs)
	first := j.reqs[0].x
	c, h, w := first.Dim(1), first.Dim(2), first.Dim(3)
	rep.arena.Reset()
	batch := rep.arena.Get(n, c, h, w)
	stride := c * h * w
	for i, r := range j.reqs {
		copy(batch.Data()[i*stride:(i+1)*stride], r.x.Data())
	}

	// Emit dispatch events and, when the batch carries a trace-sampled
	// request, hand the executor timing hooks so the sampled span's
	// Chrome trace shows the breakdown: per-layer slices on the plain
	// path, per-stage-group slices on the scheduled (IOS) path.
	var tr *model.Trace
	if p.tel.Enabled() {
		start := time.Now()
		var sampled []uint64
		for _, r := range j.reqs {
			p.tel.Emit(telemetry.Event{Kind: telemetry.EvDispatch, Req: r.id, At: start, Replica: id, Batch: n})
			if p.tel.Sampled(r.id) {
				sampled = append(sampled, r.id)
			}
		}
		if len(sampled) > 0 {
			tr = &model.Trace{
				Stage: func(stage, group, groups int, label string, at time.Time, d time.Duration) {
					for _, rid := range sampled {
						p.tel.Emit(telemetry.Event{Kind: telemetry.EvStageRun,
							Req: rid, At: at, Dur: d, Replica: id,
							Stage: stage, Group: group, Groups: groups, Name: label})
					}
				},
				Layer: func(layer int, name string, d time.Duration) {
					for _, rid := range sampled {
						p.tel.Emit(telemetry.Event{Kind: telemetry.EvLayerForward,
							Req: rid, Layer: layer, Name: name, Dur: d, Replica: id})
					}
				},
			}
		}
	}

	// A batch the router sent to int8 runs the replica's routed executor;
	// traced batches always show the main path's breakdown.
	path := j.reqs[0].path
	exec := rep.exec
	if path == model.PrecisionInt8 && tr == nil {
		exec = rep.execInt8
	}

	// Record stats and emit EvInferenceDone *before* delivering each
	// result: once a waiter unblocks it may immediately read /v1/stats or
	// emit EvResponseWritten, so both must already be ordered ahead.
	dets, err := safeDetect(exec, rep, batch, tr)
	if err != nil {
		now := time.Now()
		for _, r := range j.reqs {
			p.tel.Emit(telemetry.Event{Kind: telemetry.EvInferenceDone, Req: r.id, At: now})
			r.done <- result{err: err}
		}
		return
	}
	now := time.Now()
	rep.lats = rep.lats[:0]
	for _, r := range j.reqs {
		rep.lats = append(rep.lats, now.Sub(r.enq))
	}
	p.stats.record(id, n, rep.lats, path)
	if dyn := p.opts.Plan.Dynamic; dyn != nil {
		p.stats.setDynamicRates(dyn.ExitStats.Rate(), dyn.Stats.Rate())
	}
	for i, r := range j.reqs {
		p.tel.Emit(telemetry.Event{Kind: telemetry.EvInferenceDone, Req: r.id, At: now})
		r.done <- result{det: dets[i]}
	}
}

// safeDetect runs one batch through exec, converting a panicking forward
// pass (bad shapes reaching a layer, etc.) into an error for this batch
// instead of killing the worker. Which path serves was decided when the
// plan was compiled; the only choice left is whether the batch is traced.
// Static paths are bit-identical for the same weights and input, and so
// is the dynamic one whenever its exit head does not fire.
func safeDetect(exec model.Executor, rep *replica, x *tensor.Tensor, tr *model.Trace) (dets []metrics.Detection, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("batcher: inference failed: %v", r)
		}
	}()
	if tr != nil {
		dets = exec.InferDetectTraced(x, rep.arena, rep.dets, *tr)
	} else {
		dets = exec.InferDetect(x, rep.arena, rep.dets)
	}
	if len(dets) != x.Dim(0) {
		return nil, fmt.Errorf("batcher: detector returned %d results for batch of %d", len(dets), x.Dim(0))
	}
	rep.dets = dets
	return dets, nil
}

// batchKey groups requests that may share a forward pass: same shape
// and, under dynamic routing, the same precision path.
type batchKey struct {
	c, h, w int
	path    model.Precision
}

func keyOf(req *request) batchKey {
	return batchKey{c: req.x.Dim(1), h: req.x.Dim(2), w: req.x.Dim(3), path: req.path}
}
