// Package batcher implements batched, multi-replica inference serving.
//
// The paper's efficiency metric is latency per image *at a batch size*
// (§6.4): a served model only realizes the batched efficiency the paper
// optimizes for if the serving path actually forms batches. This package
// accepts clips, one per call or a request's worth together, and runs
// them across a pool of N independent network replicas under one rule:
// a replica that is idle takes, at once, up to MaxBatch same-shape
// requests starting from the oldest one waiting. Requests therefore
// coalesce only while every replica is busy — nothing waits for company
// while a replica idles, and the batch size emerges from load, capped by
// MaxBatch (the §6.4 knob). Each replica owns its layer caches
// (internal/nn layers cache forward activations and are not safe for
// concurrent use), so replicas run truly concurrently.
//
// Backpressure is a bound on waiting requests: at most QueueSize are
// accepted and not yet running, beyond the one batch each replica runs.
// At the bound Submit fails fast with ErrQueueFull so the HTTP layer can
// answer 429 with Retry-After instead of letting latency grow without
// bound. Close drains gracefully: everything already accepted is served,
// new submissions are refused with ErrClosed.
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
	// (default 8) — the §6.4 knob. An idle replica takes what is waiting
	// up to this many; the rest stays for the next idle replica.
	MaxBatch int
	// QueueSize bounds the requests accepted and not yet handed to a
	// replica (default 64). At the bound Submit returns ErrQueueFull, so
	// the pool holds at most Replicas batches running plus QueueSize
	// requests waiting.
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
	if o.QueueSize <= 0 {
		o.QueueSize = 64
	}
	return o
}

// Clip is one clip of a SubmitAll call: the caller sets Ctx and X, the
// pool fills in the rest.
type Clip struct {
	Ctx context.Context
	X   *tensor.Tensor // 1×C×H×W
	Det metrics.Detection
	Err error
	// Abandoned reports that Ctx ended while the pool still held the clip:
	// a replica may yet copy X into its batch, so the caller must leave X's
	// storage to the GC rather than reuse it.
	Abandoned bool
}

// request is one accepted clip awaiting inference.
type request struct {
	ctx  context.Context
	x    *tensor.Tensor // 1×C×H×W
	slot int            // index of its Clip in the SubmitAll call
	id   uint64         // telemetry span ID
	enq  time.Time
	// det and err are the answer: the pool writes them, then signals done
	// (buffered(1), so it never blocks on a waiter that gave up), always.
	det  metrics.Detection
	err  error
	done chan struct{}
	// path is the serving precision the difficulty router assigned
	// (empty without dynamic routing). It joins the batching key, so a
	// batch never mixes paths.
	path model.Precision
}

// Pool coalesces clips into batches and runs them across independent
// model replicas. Create one with New; it is safe for concurrent use by
// any number of goroutines.
type Pool struct {
	opts Options
	// queue carries each SubmitAll call's accepted requests to the
	// dispatcher as one element, so a request's clips reach it together.
	// Its capacity is QueueSize: every element holds at least one of the
	// at most QueueSize waiting requests, so a send never blocks.
	queue chan []request
	// work hands a batch to a replica that announced itself on idle
	// (buffered to Replicas, one token per replica blocked on work).
	work chan []*request
	idle chan struct{}

	// waiting counts requests accepted and not yet handed to a replica —
	// those on queue plus those in the dispatcher's FIFOs. SubmitAll
	// raises it, never past QueueSize; the hand-off lowers it.
	waiting atomic.Int64

	// curMaxBatch is the *effective* batch cap the dispatcher reads at
	// each hand-off. It starts at Options.MaxBatch and moves under Retune
	// (the adaptive batching controller's lever); Options.MaxBatch stays
	// the hard ceiling because the batch-size histogram buckets are sized
	// from it.
	curMaxBatch atomic.Int64

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
	// routes). It runs in SubmitAll on the admitted clips — routing must
	// precede batching because the two paths run different replica
	// executors.
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
	// sampled lists the trace-sampled requests of the running batch: the
	// replica's stage hook emits each timed stage once per entry.
	sampled []uint64
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
		rep := &replica{arena: tensor.NewArena(), sampled: make([]uint64, 0, opts.MaxBatch)}
		// When telemetry samples, every stage the replica's executors run
		// becomes one EvStageRun per trace-sampled request of the batch.
		var hook nn.StageHook
		if tel := opts.Telemetry; tel.Sampling() {
			hook = func(stage int, label string, at time.Time, d time.Duration) {
				for _, rid := range rep.sampled {
					tel.Emit(telemetry.Event{Kind: telemetry.EvStageRun, Req: rid, At: at, Dur: d,
						Replica: i, Stage: stage, Name: label})
				}
			}
		}
		var err error
		if rep.exec, rep.execInt8, err = opts.Plan.NewReplica(hook); err != nil {
			return nil, fmt.Errorf("batcher: replica %d: %w", i, err)
		}
		replicas[i] = rep
	}
	p := &Pool{
		opts:           opts,
		queue:          make(chan []request, opts.QueueSize),
		work:           make(chan []*request),
		idle:           make(chan struct{}, opts.Replicas),
		dispatcherDone: make(chan struct{}),
		workersDone:    make(chan struct{}),
		stats:          newStatsAccum(opts),
		tel:            opts.Telemetry,
		reps:           replicas,
		router:         opts.Plan.Router,
	}
	p.curMaxBatch.Store(int64(opts.MaxBatch))
	p.stats.effMaxBatch.Set(float64(opts.MaxBatch))
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

// Retune moves the effective max-batch without restarting the pool — the
// adaptive batching controller's lever. maxBatch clamps to
// [1, Options.MaxBatch] (the configured value is the ceiling: batch
// histogram buckets and replica arenas are sized from it); a value ≤ 0
// keeps the current setting, which makes Retune(0) the query. The
// resolved value is returned and applies from the next hand-off;
// in-flight batches are unaffected.
func (p *Pool) Retune(maxBatch int) int {
	if maxBatch > 0 {
		maxBatch = min(maxBatch, p.opts.MaxBatch)
		p.curMaxBatch.Store(int64(maxBatch))
		p.stats.retune(maxBatch)
	}
	return p.maxBatch()
}

// maxBatch is the dispatcher's read of the effective batch cap.
func (p *Pool) maxBatch() int { return int(p.curMaxBatch.Load()) }

// Submit runs one 1×C×H×W clip through the pool and blocks until its
// detection is ready, the context is done, or the pool rejects it: the
// one-clip case of SubmitAll.
func (p *Pool) Submit(ctx context.Context, x *tensor.Tensor) (metrics.Detection, error) {
	clip := [1]Clip{{Ctx: ctx, X: x}}
	p.SubmitAll(clip[:])
	return clip[0].Det, clip[0].Err
}

var errBadClip = errors.New("batcher: want a 1×C×H×W tensor")

// SubmitAll enqueues the clips as one unit, so an idle replica finds them
// together and same-shape clips share forward passes, and blocks until
// each has its detection or its error: a bad tensor, ErrClosed,
// ErrQueueFull for those beyond the QueueSize bound (the clips before
// them are served), or its context's error. It is safe to call from many
// goroutines; clips of calls that overlap in time coalesce too.
func (p *Pool) SubmitAll(clips []Clip) {
	reqs := make([]request, 0, len(clips))
	now := time.Now()
	for i := range clips {
		c := &clips[i]
		if c.X == nil || c.X.Rank() != 4 || c.X.Dim(0) != 1 {
			c.Err = errBadClip
			continue
		}
		id, ok := telemetry.RequestID(c.Ctx)
		if !ok {
			id = p.tel.NextRequestID()
		}
		reqs = append(reqs, request{ctx: c.Ctx, x: c.X, slot: i, id: id, enq: now})
	}

	refused := ErrClosed
	admitted := 0
	if p.closing.enter() {
		refused = ErrQueueFull
		if admitted = p.admit(len(reqs)); admitted > 0 {
			for i := range reqs[:admitted] {
				r := &reqs[i]
				// Only an admitted clip is routed and counted: a refused one
				// costs no router pass, and a retry is not counted twice.
				if p.router != nil {
					r.path = p.router.Route(r.x, 0)
					p.stats.route(r.path)
				}
				r.done = make(chan struct{}, 1)
				p.tel.Emit(telemetry.Event{Kind: telemetry.EvEnqueued, Req: r.id, At: now})
			}
			p.queue <- reqs[:admitted]
		}
		p.closing.leave()
	}
	for _, r := range reqs[admitted:] {
		p.stats.reject()
		clips[r.slot].Err = refused
	}

	for i := range reqs[:admitted] {
		r := &reqs[i]
		c := &clips[r.slot]
		select {
		case <-r.done:
		case <-r.ctx.Done():
			select {
			case <-r.done: // a result that raced the cancellation wins
			default:
				// The request stays with the pool: the hand-off drops it when
				// it sees the dead context, or a replica that already has it
				// signals the buffered done channel nobody reads.
				p.stats.cancel()
				c.Err, c.Abandoned = r.ctx.Err(), true
				continue
			}
		}
		c.Det, c.Err = r.det, r.err
	}
}

// admit reserves room under the QueueSize bound for up to n more waiting
// requests and returns how many fit.
func (p *Pool) admit(n int) int {
	for {
		cur := p.waiting.Load()
		k := min(int64(n), int64(p.opts.QueueSize)-cur)
		if k <= 0 {
			return 0
		}
		if p.waiting.CompareAndSwap(cur, cur+k) {
			p.stats.queueDepth.Add(float64(k))
			return int(k)
		}
	}
}

// Stats returns a snapshot of serving statistics.
func (p *Pool) Stats() Stats { return p.stats.snapshot(int(p.waiting.Load())) }

// Close drains the pool: new submissions fail with ErrClosed, every
// request already accepted is served, and Close returns once all replicas
// are idle. Close is idempotent.
func (p *Pool) Close() {
	if p.closing.close() {
		close(p.queue)
	}
	<-p.dispatcherDone
	<-p.workersDone
}

// dispatch is work-conserving: it files submitted requests under their
// batch key in arrival order and, whenever something waits and a replica
// is idle, hands that replica a batch at once. Requests accumulate only
// while every replica is busy, and nothing here ever waits on a clock.
// After Close it keeps feeding replicas until the backlog is gone.
func (p *Pool) dispatch() {
	defer close(p.dispatcherDone)
	defer close(p.work)

	pending := make(map[batchKey][]*request)
	queue := p.queue
	join := func(group []request, open bool) {
		if !open {
			queue = nil
			return
		}
		for i := range group {
			r := &group[i]
			key := keyOf(r)
			pending[key] = append(pending[key], r)
		}
	}
	for queue != nil || len(pending) > 0 {
		var idle chan struct{}
		if len(pending) > 0 {
			idle = p.idle
		}
		select {
		case group, open := <-queue:
			join(group, open)
		case <-idle:
			// Whatever else has been submitted joins first, so the batch is
			// as full as the backlog allows at the moment of hand-off.
		absorb:
			for queue != nil {
				select {
				case group, open := <-queue:
					join(group, open)
				default:
					break absorb
				}
			}
			if batch := p.take(pending); len(batch) > 0 {
				p.work <- batch
			} else {
				idle <- struct{}{} // all it found had been cancelled: the replica is still idle
			}
		}
	}
}

// take removes the next batch from pending: up to the effective max-batch
// requests from the FIFO whose head has waited longest, so no key starves.
// Requests whose context has already ended are dropped on the way and
// answered here; the batch may come back empty.
func (p *Pool) take(pending map[batchKey][]*request) []*request {
	var key batchKey
	var fifo []*request
	for k, reqs := range pending {
		if fifo == nil || reqs[0].enq.Before(fifo[0].enq) {
			key, fifo = k, reqs
		}
	}
	limit := p.maxBatch()
	n, scanned := 0, 0
	for scanned < len(fifo) && n < limit {
		r := fifo[scanned]
		scanned++
		if err := r.ctx.Err(); err != nil {
			// Close the span before delivering: the emit must be in the
			// ring before the waiter can emit EvResponseWritten.
			p.tel.Emit(telemetry.Event{Kind: telemetry.EvInferenceDone, Req: r.id, At: time.Now()})
			r.err = err
			r.done <- struct{}{}
			continue
		}
		fifo[n] = r
		n++
	}
	if scanned == len(fifo) {
		delete(pending, key)
	} else {
		pending[key] = fifo[scanned:]
	}
	p.waiting.Add(-int64(scanned))
	p.stats.queueDepth.Add(-float64(scanned))

	batch := fifo[:n:n]
	if p.tel.Enabled() {
		now := time.Now()
		for _, r := range batch {
			p.tel.Emit(telemetry.Event{Kind: telemetry.EvBatchFormed, Req: r.id, At: now, Batch: n})
		}
	}
	return batch
}

// runWorkers starts one goroutine per replica and closes workersDone when
// the last one drains. A replica announces itself on idle, then blocks on
// work until the dispatcher hands it a batch or shuts down.
func (p *Pool) runWorkers(replicas []*replica) {
	done := make(chan struct{}, len(replicas))
	for id, rep := range replicas {
		go func(id int, rep *replica) {
			defer func() { done <- struct{}{} }()
			for {
				p.idle <- struct{}{}
				batch, ok := <-p.work
				if !ok {
					return
				}
				p.runBatch(id, rep, batch)
			}
		}(id, rep)
	}
	for range replicas {
		<-done
	}
	close(p.workersDone)
}

// runBatch stacks a batch's clips into one N×C×H×W tensor drawn from the
// replica's arena, runs a single forward pass, and delivers per-request
// results. The batch tensor, every layer temporary and the decoded
// detections all come from replica-owned storage, so a warm replica
// serves a batch — traced or not — with zero heap allocations in the
// model forward.
func (p *Pool) runBatch(id int, rep *replica, reqs []*request) {
	n := len(reqs)
	first := reqs[0].x
	c, h, w := first.Dim(1), first.Dim(2), first.Dim(3)
	rep.arena.Reset()
	batch := rep.arena.Get(n, c, h, w)
	stride := c * h * w
	for i, r := range reqs {
		copy(batch.Data()[i*stride:(i+1)*stride], r.x.Data())
	}

	// Emit dispatch events and note the trace-sampled requests, whose
	// spans receive the replica's stage timings.
	rep.sampled = rep.sampled[:0]
	if p.tel.Enabled() {
		start := time.Now()
		for _, r := range reqs {
			p.tel.Emit(telemetry.Event{Kind: telemetry.EvDispatch, Req: r.id, At: start, Replica: id, Batch: n})
			if p.tel.Sampled(r.id) {
				rep.sampled = append(rep.sampled, r.id)
			}
		}
	}

	// A batch the router sent to int8 runs the replica's routed executor.
	path := reqs[0].path
	exec := rep.exec
	if path == model.PrecisionInt8 {
		exec = rep.execInt8
	}

	// Record stats and emit EvInferenceDone *before* delivering each
	// result: once a waiter unblocks it may immediately read /v1/stats or
	// emit EvResponseWritten, so both must already be ordered ahead.
	dets, err := safeDetect(exec, rep, batch)
	if err != nil {
		now := time.Now()
		for _, r := range reqs {
			p.tel.Emit(telemetry.Event{Kind: telemetry.EvInferenceDone, Req: r.id, At: now})
			r.err = err
			r.done <- struct{}{}
		}
		return
	}
	now := time.Now()
	rep.lats = rep.lats[:0]
	for _, r := range reqs {
		rep.lats = append(rep.lats, now.Sub(r.enq))
	}
	p.stats.record(id, n, rep.lats, path)
	if dyn := p.opts.Plan.Dynamic; dyn != nil {
		p.stats.setDynamicRates(dyn.ExitStats.Rate(), dyn.Stats.Rate())
	}
	for i, r := range reqs {
		p.tel.Emit(telemetry.Event{Kind: telemetry.EvInferenceDone, Req: r.id, At: now})
		r.det = dets[i]
		r.done <- struct{}{}
	}
}

// safeDetect runs one batch through exec, converting a panicking forward
// pass (bad shapes reaching a layer, etc.) into an error for this batch
// instead of killing the worker. Which path serves was decided when the
// plan was compiled, so a trace-sampled batch gets the same answers as
// any other.
func safeDetect(exec model.Executor, rep *replica, x *tensor.Tensor) (dets []metrics.Detection, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("batcher: inference failed: %v", r)
		}
	}()
	dets = exec.InferDetect(x, rep.arena, rep.dets)
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
