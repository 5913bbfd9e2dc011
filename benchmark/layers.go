package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"time"

	"drainnet/internal/experiments"
	"drainnet/internal/hydro"
	"drainnet/internal/metrics"
	"drainnet/internal/model"
	"drainnet/internal/nn"
	"drainnet/internal/serve"
	"drainnet/internal/sweep"
	"drainnet/internal/telemetry"
	"drainnet/internal/tensor"
	"drainnet/internal/terrain"
)

// opBudget is how long one in-process operation is sampled for.
const opBudget = 80 * time.Millisecond

// timeOp returns the median time of one call of f. Calls are grouped so
// that a sample lasts at least 200 µs, and samples are taken for about
// budget (five at least).
func timeOp(budget time.Duration, f func()) time.Duration {
	f() // first call packs weights, grows arenas, faults pages in
	reps := 1
	for {
		start := time.Now()
		for i := 0; i < reps; i++ {
			f()
		}
		if time.Since(start) >= 200*time.Microsecond || reps >= 1<<20 {
			break
		}
		reps *= 2
	}
	var samples []float64
	deadline := time.Now().Add(budget)
	for len(samples) < 5 || time.Now().Before(deadline) {
		start := time.Now()
		for i := 0; i < reps; i++ {
			f()
		}
		samples = append(samples, float64(time.Since(start))/float64(reps))
	}
	return time.Duration(median(samples))
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// allocsPer returns heap allocations and KiB allocated per call of f.
func allocsPer(runs int, f func()) (allocs, kb float64) {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs),
		float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64(runs)
}

// moduleGroup is one row of the per-module table: a module of the bench
// net together with the ReLU the serving path fuses into it.
type moduleGroup struct {
	name   string
	lo, hi int // Sequential.InferRange bounds
}

// moduleGroups names the bench net's modules in order: conv0, pool0, …,
// spp, fc0, head.
func moduleGroups(net *nn.Sequential) []moduleGroup {
	var out []moduleGroup
	mods := net.Modules()
	convs, pools, fcs := 0, 0, 0
	for i := 0; i < len(mods); i++ {
		g := moduleGroup{lo: i, hi: i + 1}
		if i+1 < len(mods) {
			if _, relu := mods[i+1].(*nn.ReLU); relu {
				g.hi = i + 2
			}
		}
		switch mods[i].(type) {
		case *nn.Conv2D:
			g.name = fmt.Sprintf("conv%d", convs)
			convs++
		case *nn.MaxPool2D:
			g.name = fmt.Sprintf("pool%d", pools)
			pools++
		case *nn.SPP:
			g.name = "spp"
		case *nn.Linear:
			g.name = fmt.Sprintf("fc%d", fcs)
			if i == len(mods)-1 {
				g.name = "head"
			}
			fcs++
		default:
			g.name = model.LayerName(mods[i])
		}
		out = append(out, g)
		i = g.hi - 1
	}
	return out
}

// groupInputs runs x through the net and returns a heap copy of the
// input each module group sees.
func groupInputs(net *nn.Sequential, groups []moduleGroup, x *tensor.Tensor) []*tensor.Tensor {
	a := tensor.NewArena()
	ins := make([]*tensor.Tensor, len(groups))
	cur := x
	for i, g := range groups {
		ins[i] = cur.Clone()
		cur = net.InferRange(cur, a, g.lo, g.hi)
	}
	return ins
}

// costPerClip walks the net's shapes and returns the multiply-add
// FLOPs and the bytes of activations and weights one clip touches. Both
// are computed from tensor sizes, not measured.
func costPerClip(net *nn.Sequential, in []int) (flops, bytes float64) {
	shape := in
	for _, m := range net.Modules() {
		out := m.OutShape(shape)
		bytes += 4 * float64(tensor.Volume(shape)+tensor.Volume(out))
		for _, p := range m.Params() {
			bytes += 4 * float64(p.Value.Len())
		}
		switch l := m.(type) {
		case *nn.Conv2D:
			flops += 2 * float64(l.InC*l.Geom.KH*l.Geom.KW) * float64(tensor.Volume(out))
		case *nn.Linear:
			flops += 2 * float64(l.In*l.Out) * float64(out[0])
		}
		shape = out
	}
	return flops, bytes
}

type noopRanger struct{}

func (noopRanger) RunRange(lo, hi int) {}

// batchOf stacks n pool clips, starting at clip `from`, into one
// n×C×H×W tensor.
func batchOf(pool *clipPool, from, n int) *tensor.Tensor {
	img := pool.samples[0].Image
	x := tensor.New(n, img.Dim(0), img.Dim(1), img.Dim(2))
	per := img.Len()
	for i := 0; i < n; i++ {
		copy(x.Data()[i*per:(i+1)*per], pool.samples[(from+i)%len(pool.samples)].Image.Data())
	}
	return x
}

// layerRun is the state the in-process layer timings share.
type layerRun struct {
	e     *env
	rec   *recorder
	pool  *clipPool
	cfg   model.Config
	m     map[string]float64 // metric name → value
	err   error              // first failure inside a timed call
	net   *nn.Sequential     // the bench model, packed for serving
	arena *tensor.Arena
	dst   []metrics.Detection
	x1    *tensor.Tensor // one pool clip
	x16   *tensor.Tensor // sixteen
	// groups are the bench net's modules as the serving path runs them.
	groups []moduleGroup
	// Filled by serveAndBatcher for the sampled requests.
	single, batch *detectTraffic
	post          func(t *detectTraffic, k int) func()
	submit        func(x *tensor.Tensor) func()
	submit16      func()
	closeServer   func()
}

// fail keeps the first error a timed closure ran into; the run reports
// it once the layer is done.
func (l *layerRun) fail(err error) {
	if l.err == nil {
		l.err = err
	}
}

// infer is one serving-path forward pass of n over x.
func (l *layerRun) infer(n *nn.Sequential, x *tensor.Tensor) func() {
	return func() { l.arena.Reset(); l.dst = model.InferDetect(n, x, l.arena, l.dst[:0]) }
}

// layerBench times calls into each package's public functions, in this
// process, on the bench checkpoint and pool clips. It returns the
// per-layer metrics that do not depend on the workload and records a few
// sampled requests top-down as spans.
func (e *env) layerBench(rec *recorder) (map[string]float64, error) {
	pool, err := e.clipPool()
	if err != nil {
		return nil, err
	}
	l := &layerRun{e: e, rec: rec, pool: pool, cfg: benchConfig(), m: map[string]float64{},
		arena: tensor.NewArena(), dst: make([]metrics.Detection, 0, 16),
		x1: batchOf(pool, 0, 1), x16: batchOf(pool, 0, 16)}
	defer func() {
		if l.closeServer != nil {
			l.closeServer()
		}
	}()
	for _, layer := range []func() error{
		l.loadAndPack, l.model, l.modules, l.kernels, l.serveAndBatcher, l.sweepTerrainTelemetry, l.sampledRequests,
	} {
		if err := layer(); err != nil {
			return nil, err
		}
		if l.err != nil {
			return nil, l.err
		}
	}
	return l.m, nil
}

// loadAndPack times what server start-up does to the checkpoint (train,
// nn) and leaves the packed bench model in l.net.
func (l *layerRun) loadAndPack() error {
	load := func() *nn.Sequential {
		net, err := loadBenchNet(l.e.benchDir, l.e.pins)
		if err != nil {
			l.fail(err)
		}
		return net
	}
	l.m["train.load_ckpt_ms"] = us(timeOp(opBudget, func() { l.net = load() })) / 1e3
	if l.err != nil {
		return l.err
	}
	var packs []float64
	for i := 0; i < 5 && l.err == nil; i++ {
		fresh := load()
		start := time.Now()
		nn.PrepareInferenceParallel(fresh)
		packs = append(packs, float64(time.Since(start))/float64(time.Millisecond))
	}
	l.m["nn.prepare_ms"] = median(packs)
	nn.PrepareInferenceParallel(l.net)
	l.m["nn.clone_shared_us"] = us(timeOp(opBudget, func() {
		if _, err := nn.CloneShared(l.net); err != nil {
			l.fail(err)
		}
	}))
	l.groups = moduleGroups(l.net)
	return nil
}

// model times the serving fast path, the reference forward pass, and
// the int8 and dynamic paths with the gates that admit them.
func (l *layerRun) model() error {
	m := l.m
	m["model.infer_us_per_clip.fp32.b1"] = us(timeOp(opBudget, l.infer(l.net, l.x1)))
	m["model.infer_us_per_clip.fp32.b16"] = us(timeOp(opBudget, l.infer(l.net, l.x16))) / 16
	m["model.forward_us_per_clip.b16"] = us(timeOp(opBudget, func() { model.Detect(l.net, l.x16) })) / 16
	m["model.allocs_per_op.fp32.b16"], _ = allocsPer(50, l.infer(l.net, l.x16))

	// The calibration split and ε that drainnet-serve gates sweep_prior's
	// server on.
	_, calib, err := experiments.BuildData(experiments.TinyData())
	if err != nil {
		return err
	}
	start := time.Now()
	quant, err := model.QuantizeGated(l.net, calib, model.QuantOptions{MaxAPDrop: 0.05})
	if err != nil {
		return err
	}
	m["model.quant_gate_s"] = time.Since(start).Seconds()
	m["model.int8_ap_drop"] = quant.Drop
	nn.PrepareInferenceParallel(quant.Net)
	m["model.infer_us_per_clip.int8.b16"] = us(timeOp(opBudget, l.infer(quant.Net, l.x16))) / 16

	dnet, err := loadBenchNet(l.e.benchDir, l.e.pins) // the plan rewires the net it is applied to
	if err != nil {
		return err
	}
	start = time.Now()
	plan, err := model.PlanDynamic(dnet, calib, model.DynamicOptions{MaxAPDrop: 0.05, Int8: quant})
	if err != nil {
		return err
	}
	m["model.plan_dynamic_s"] = time.Since(start).Seconds()
	m["model.dynamic_ap_drop"] = plan.Drop
	plan.Apply(dnet)
	nn.PrepareInferenceParallel(dnet)
	traffic, err := sweep.BenchTraffic("baseline", l.cfg.InSize)
	if err != nil {
		return err
	}
	// Eight batches spread over the raster: the mostly-empty mix the
	// early exit is calibrated for.
	var batches []*tensor.Tensor
	for k := 0; k < 8; k++ {
		lo := k * (len(traffic.Samples) - 16) / 7
		x, _ := traffic.Batch(lo, lo+16)
		batches = append(batches, x)
	}
	exec := model.NewDynamicExec(dnet, plan)
	m["model.infer_us_per_clip.dynamic.b16"] = us(timeOp(opBudget, func() {
		for _, x := range batches {
			l.arena.Reset()
			l.dst = exec.InferDetect(x, l.arena, l.dst[:0])
		}
	})) / float64(16*len(batches))
	m["model.exit_rate"] = plan.ExitStats.Rate()
	m["model.mask_rate"] = plan.Stats.Rate()
	return nil
}

// modules times each module of the bench net (nn) at batch 1 and 16,
// per clip, so that a column sums to about model.infer_us_per_clip.
func (l *layerRun) modules() error {
	for _, b := range []struct {
		tag string
		x   *tensor.Tensor
	}{{"b1", l.x1}, {"b16", l.x16}} {
		ins := groupInputs(l.net, l.groups, b.x)
		for i, g := range l.groups {
			l.m["nn.layer_us."+g.name+"."+b.tag] = us(timeOp(opBudget/2, func() {
				l.arena.Reset()
				l.net.InferRange(ins[i], l.arena, g.lo, g.hi)
			})) / float64(b.x.Dim(0))
		}
	}
	return nil
}

// kernels times the tensor kernels behind conv1, on its shape at batch 16.
func (l *layerRun) kernels() error {
	m := l.m
	var conv *nn.Conv2D
	var in *tensor.Tensor
	for i, g := range l.groups {
		if g.name == "conv1" {
			conv, in = l.net.Modules()[g.lo].(*nn.Conv2D), groupInputs(l.net, l.groups, l.x16)[i]
		}
	}
	if conv == nil {
		return fmt.Errorf("bench net has no conv1")
	}
	for _, k := range []nn.ConvKernel{nn.KernelIm2Col, nn.KernelWinograd, nn.KernelNCHWc, nn.KernelDirect} {
		conv.SetKernels(k, k)
		m["tensor.conv_us."+k.String()] = us(timeOp(opBudget, func() {
			l.arena.Reset()
			conv.InferFused(in, l.arena, true)
		}))
	}
	conv.SetKernels(nn.KernelIm2Col, nn.KernelIm2Col)

	g := newConvGEMM(conv, in)
	ops := 2 * float64(conv.OutC*g.kdim*g.ohw)
	m["tensor.im2col_gbps"] = 4 * float64(g.kdim*g.ohw) / float64(timeOp(opBudget, func() { g.im2col(0) }))
	m["tensor.gemm_gflops.fp32"] = ops / float64(timeOp(opBudget, g.gemm))
	qw, scales := tensor.QuantizeSymmetricPerRow(conv.Weight.Value.Reshape(conv.OutC, g.kdim))
	packed8 := tensor.PackInt8(qw, conv.OutC, g.kdim)
	cols8 := make([]int8, g.kdim*g.ohw)
	tensor.QuantizeSlice(cols8, g.cols.Data(), 127, 0)
	acc := make([]int64, 2*g.ohw)
	m["tensor.gemm_gops.int8"] = ops / float64(timeOp(opBudget, func() {
		packed8.MulPanelsInto(g.out.Data(), cols8, g.ohw, acc, 0, scales, conv.Bias.Value.Data(), true, 0, packed8.Panels())
	}))
	q8 := make([]int8, in.Len())
	m["tensor.quantize_gbps"] = 4 * float64(in.Len()) / float64(timeOp(opBudget, func() { tensor.QuantizeSlice(q8, in.Data(), 127, 0) }))
	m["tensor.parallel_dispatch_ns"] = float64(timeOp(opBudget, func() { tensor.ParallelRange(2, 1, noopRanger{}) }))
	m["tensor.flops_per_clip"], m["tensor.bytes_per_clip"] = costPerClip(l.net, []int{1, l.cfg.InBands, l.cfg.InSize, l.cfg.InSize})
	return nil
}

// convGEMM is a conv layer lowered by hand to the two tensor calls its
// default kernel makes per sample: im2col, then the packed GEMM.
type convGEMM struct {
	conv      *nn.Conv2D
	in        *tensor.Tensor
	c, h, w   int
	kdim, ohw int
	cols, out *tensor.Tensor
	packed    *tensor.Packed
}

func newConvGEMM(conv *nn.Conv2D, in *tensor.Tensor) *convGEMM {
	g := &convGEMM{conv: conv, in: in, c: in.Dim(1), h: in.Dim(2), w: in.Dim(3)}
	oh, ow := conv.Geom.OutSize(g.h, g.w)
	g.kdim, g.ohw = g.c*conv.Geom.KH*conv.Geom.KW, oh*ow
	g.cols, g.out = tensor.New(g.kdim, g.ohw), tensor.New(conv.OutC, g.ohw)
	g.packed = tensor.PackMatrix(conv.Weight.Value.Reshape(conv.OutC, g.kdim))
	return g
}

// im2col lowers sample s of the input.
func (g *convGEMM) im2col(s int) {
	per := g.c * g.h * g.w
	tensor.Im2ColSlice(g.cols.Data(), g.in.Data()[s*per:(s+1)*per], g.c, g.h, g.w, g.conv.Geom)
}

func (g *convGEMM) gemm() { g.packed.MulInto(g.out, g.cols, g.conv.Bias.Value.Data(), true) }

// serveAndBatcher times the HTTP handler and the pool under it on an
// in-process server configured like the static child.
func (l *layerRun) serveAndBatcher() error {
	snet, err := loadBenchNet(l.e.benchDir, l.e.pins)
	if err != nil {
		return err
	}
	srv, err := serve.NewWithOptions(l.cfg, snet, serveThreshold, serve.Options{MaxBatch: 16, QueueSize: 256})
	if err != nil {
		return err
	}
	l.closeServer = srv.Close // it serves the sampled requests too
	handler := srv.Handler()
	l.single, l.batch = newDetectTraffic(l.pool, 1, 1), newDetectTraffic(l.pool, 16, 1)
	l.post = func(t *detectTraffic, k int) func() {
		return func() {
			rw := httptest.NewRecorder()
			handler.ServeHTTP(rw, httptest.NewRequest(http.MethodPost, t.path, bytes.NewReader(t.bodies[k])))
			if rw.Code != http.StatusOK {
				l.fail(fmt.Errorf("in-process %s: status %d: %s", t.path, rw.Code, rw.Body))
			}
		}
	}
	l.submit = func(x *tensor.Tensor) func() {
		return func() {
			if _, err := srv.Pool().Submit(context.Background(), x); err != nil {
				l.fail(err)
			}
		}
	}
	clips := make([]*tensor.Tensor, 16)
	for i := range clips {
		clips[i] = batchOf(l.pool, i, 1)
	}
	var mu sync.Mutex // l.fail from sixteen goroutines
	l.submit16 = func() {
		var wg sync.WaitGroup
		for _, x := range clips {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := srv.Pool().Submit(context.Background(), x); err != nil {
					mu.Lock()
					l.fail(err)
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
	}
	m := l.m
	handlerB1 := timeOp(2*opBudget, l.post(l.single, 0))
	handlerB16 := timeOp(2*opBudget, l.post(l.batch, 0))
	submitB1 := timeOp(2*opBudget, l.submit(l.x1))
	submitC16 := timeOp(2*opBudget, l.submit16)
	m["serve.handler_us.single"] = us(handlerB1)
	m["serve.handler_us_per_clip.batch16"] = us(handlerB16) / 16
	m["batcher.submit_us.b1"] = us(submitB1)
	m["batcher.submit_us_per_clip.c16"] = us(submitC16) / 16
	m["batcher.wait_share.b1"] = 1 - m["model.infer_us_per_clip.fp32.b1"]/us(submitB1)
	m["serve.self_us_per_clip.single"] = us(handlerB1 - submitB1)
	m["serve.self_us_per_clip.batch16"] = us(handlerB16-submitC16) / 16
	_, m["serve.alloc_kb_per_clip.single"] = allocsPer(20, l.post(l.single, 0))
	_, kb16 := allocsPer(5, l.post(l.batch, 0))
	m["serve.alloc_kb_per_clip.batch16"] = kb16 / 16
	m["serve.body_kb_per_clip"] = float64(len(l.single.bodies[0])) / 1024
	return nil
}

// sweepTerrainTelemetry times the layers a sweep job adds around
// inference, and one telemetry event.
func (l *layerRun) sweepTerrainTelemetry() error {
	m := l.m
	overhead, err := sweepOverhead(l.cfg)
	if err != nil {
		return err
	}
	m["sweep.overhead_us_per_window"] = overhead

	tc := terrain.DefaultConfig()
	tc.Rows, tc.Cols, tc.Seed = 256, 256, 11
	mcell := float64(tc.Rows*tc.Cols) / 1e6
	var ws *terrain.Watershed
	m["terrain.generate_s_per_mcell"] = timeOp(2*opBudget, func() {
		w, err := terrain.Generate(tc)
		if err != nil {
			l.fail(err)
			return
		}
		ws = w
	}).Seconds() / mcell
	if ws == nil {
		return l.err
	}
	var img *tensor.Tensor
	m["terrain.render_s_per_mcell"] = timeOp(2*opBudget, func() {
		img = terrain.RenderScenario(ws, terrain.BaselineScenario())
	}).Seconds() / mcell
	m["terrain.clip_ns"] = float64(timeOp(opBudget, func() { terrain.Clip(img, 100, 100, l.cfg.InSize) }))
	m["hydro.flow_s_per_mcell"] = timeOp(2*opBudget, func() {
		hydro.FlowAccumulation(ws.DEM, hydro.D8FlowDirections(ws.DEM))
	}).Seconds() / mcell

	tel := telemetry.New(telemetry.Options{})
	defer tel.Close()
	var id uint64
	m["telemetry.emit_ns"] = float64(timeOp(opBudget, func() {
		id++
		tel.Emit(telemetry.Event{Kind: telemetry.EvAccepted, Req: id, At: time.Now()})
	}))
	return nil
}

// sampledRequests re-issues six requests top-down as spans: the same
// clips through the handler, the pool, the model, each module, and the
// two kernels under each conv. Requests 1–4 carry one clip, 5–6 sixteen.
func (l *layerRun) sampledRequests() error {
	for req := 1; req <= 6; req++ {
		t, k := l.single, req
		if req > 4 {
			t, k = l.batch, req-5
		}
		x := tensor.New(len(t.clips[k]), l.cfg.InBands, l.cfg.InSize, l.cfg.InSize)
		per := x.Len() / x.Dim(0)
		for i, j := range t.clips[k] {
			copy(x.Data()[i*per:(i+1)*per], l.pool.samples[j].Image.Data())
		}
		submit := l.submit16
		if x.Dim(0) == 1 {
			submit = l.submit(x)
		}
		hs := l.rec.do(0, req, "serve.handler", l.post(t, k))
		ss := l.rec.do(hs, req, "batcher.Submit", submit)
		ms := l.rec.do(ss, req, "model.InferDetect", l.infer(l.net, x))
		ins := groupInputs(l.net, l.groups, x)
		for i, g := range l.groups {
			ns := l.rec.do(ms, req, "nn."+g.name, func() { l.arena.Reset(); l.net.InferRange(ins[i], l.arena, g.lo, g.hi) })
			conv, ok := l.net.Modules()[g.lo].(*nn.Conv2D)
			if !ok {
				continue
			}
			lowered := newConvGEMM(conv, ins[i])
			l.rec.do(ns, req, "tensor.im2col", func() {
				for s := 0; s < x.Dim(0); s++ {
					lowered.im2col(s)
				}
			})
			l.rec.do(ns, req, "tensor.gemm", func() {
				for s := 0; s < x.Dim(0); s++ {
					lowered.gemm()
				}
			})
		}
	}
	return nil
}

// instantSubmitter answers every clip at once with a negative.
type instantSubmitter struct{}

func (instantSubmitter) Submit(context.Context, *tensor.Tensor) (metrics.Detection, error) {
	return metrics.Detection{}, nil
}

// sweepOverhead runs one dense 256² job over a submitter that costs
// nothing and returns the microseconds per window its infer and merge
// stages took: window clipping, fan-out, hit collection, bookkeeping.
func sweepOverhead(cfg model.Config) (float64, error) {
	mgr, err := sweep.NewManager(sweep.ManagerOptions{Submit: instantSubmitter{}, Bands: cfg.InBands, DefaultWindow: cfg.InSize})
	if err != nil {
		return 0, err
	}
	defer mgr.Close()
	spec := sweep.Spec{Rows: 256, Cols: 256, Seed: 11, Stride: 10}
	spec.Prior.Disabled = true
	job, err := mgr.Start(spec)
	if err != nil {
		return 0, err
	}
	var inStage time.Duration
	last := time.Now()
	for done := false; !done; {
		select {
		case <-job.Done():
			done = true
		default:
			time.Sleep(50 * time.Microsecond)
		}
		now := time.Now()
		if ph := job.Status().Phase; ph == "infer" || ph == "merge" {
			inStage += now.Sub(last)
		}
		last = now
	}
	st := job.Status()
	if st.State != sweep.StateDone || st.Inferred == 0 {
		return 0, fmt.Errorf("in-process sweep ended %q after %d windows: %s", st.State, st.Inferred, st.Error)
	}
	return us(inStage) / float64(st.Inferred), nil
}

// layerSelf sums span self times by layer (the part of the span name
// before the dot), in microseconds.
func layerSelf(spans []span) map[string]float64 {
	out := map[string]float64{}
	self := selfTimes(spans)
	for _, s := range spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		out[layer] += us(self[s.ID])
	}
	return out
}
