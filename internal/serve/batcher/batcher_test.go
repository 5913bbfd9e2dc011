package batcher

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"drainnet/internal/metrics"
	"drainnet/internal/model"
	"drainnet/internal/nn"
	"drainnet/internal/telemetry"
	"drainnet/internal/tensor"
)

func tinyConfig() model.Config {
	return model.OriginalSPPNet().Scaled(16).WithInput(4, 40)
}

func tinyNet(t testing.TB, cfg model.Config) *nn.Sequential {
	t.Helper()
	net, err := cfg.Build(rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func newTestPool(t testing.TB, opts Options) *Pool {
	t.Helper()
	cfg := tinyConfig()
	p, err := New(cfg, tinyNet(t, cfg), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

func clip(seed int64) *tensor.Tensor {
	x := tensor.New(1, 4, 40, 40)
	rng := rand.New(rand.NewSource(seed))
	data := x.Data()
	for i := range data {
		data[i] = rng.Float32()
	}
	return x
}

// stubExec is a test Executor: any func over the batch tensor.
type stubExec func(x *tensor.Tensor) []metrics.Detection

func (f stubExec) InferDetect(x *tensor.Tensor, _ *tensor.Arena, _ []metrics.Detection) []metrics.Detection {
	return f(x)
}

// setExec swaps every replica's executor for a stub, making timing-
// sensitive behavior deterministic. Call before the first Submit.
func setExec(p *Pool, e stubExec) {
	for _, rep := range p.reps {
		rep.exec = e
	}
}

// stubDetect replaces real inference with a controllable stand-in that
// returns each clip's first pixel as the score.
func stubDetect(block <-chan struct{}) stubExec {
	return func(x *tensor.Tensor) []metrics.Detection {
		if block != nil {
			<-block
		}
		dets := make([]metrics.Detection, x.Dim(0))
		stride := x.Dim(1) * x.Dim(2) * x.Dim(3)
		for i := range dets {
			dets[i] = metrics.Detection{Score: float64(x.Data()[i*stride])}
		}
		return dets
	}
}

// tagged is a clip whose first pixel, and so whose stub score, is v.
func tagged(v float32, size int) *tensor.Tensor {
	x := tensor.New(1, 4, size, size)
	x.Data()[0] = v
	return x
}

// stepper is a stub executor the test runs one batch at a time: each
// batch announces the tags of its clips on entered, then parks until the
// test calls step (or open, which lets everything through).
type stepper struct {
	entered chan []float64
	steps   chan struct{}
	once    sync.Once
}

// newStepper installs a stepper on p. Register it after the pool: its
// cleanup must open the gate before the pool's Close waits on replicas.
func newStepper(t *testing.T, p *Pool) *stepper {
	// entered is sized to the batches a test may leave unread at its end.
	g := &stepper{entered: make(chan []float64, 64), steps: make(chan struct{})}
	inner := stubDetect(nil)
	setExec(p, func(x *tensor.Tensor) []metrics.Detection {
		dets := inner(x)
		tags := make([]float64, len(dets))
		for i, d := range dets {
			tags[i] = d.Score
		}
		g.entered <- tags
		<-g.steps
		return dets
	})
	t.Cleanup(g.open)
	return g
}

func (g *stepper) step() { g.steps <- struct{}{} }
func (g *stepper) open() { g.once.Do(func() { close(g.steps) }) }

// next returns the tags of the batch a replica has just started.
func (g *stepper) next(t *testing.T) []float64 {
	t.Helper()
	select {
	case tags := <-g.entered:
		return tags
	case <-time.After(10 * time.Second):
		t.Fatal("no replica started a batch")
		return nil
	}
}

// occupy submits one clip to a pool with an idle replica and returns once
// that replica is parked inside its batch.
func (g *stepper) occupy(t *testing.T, p *Pool, wg *sync.WaitGroup, x *tensor.Tensor) {
	t.Helper()
	submitAsync(t, p, wg, x)
	if got, want := g.next(t), float64(x.Data()[0]); !sameTags(got, want) {
		t.Fatalf("idle replica started %v, want the lone request %v", got, want)
	}
}

func submitAsync(t *testing.T, p *Pool, wg *sync.WaitGroup, x *tensor.Tensor) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := p.Submit(context.Background(), x); err != nil {
			t.Error(err)
		}
	}()
}

// submitBehind submits clips to a pool whose replicas are all parked, one
// after the other, each only once the one before is on the queue, so
// arrival order is the argument order. waiting is the pool's waiting
// count beforehand.
func submitBehind(t *testing.T, p *Pool, wg *sync.WaitGroup, waiting int, clips ...*tensor.Tensor) {
	t.Helper()
	for i, x := range clips {
		submitAsync(t, p, wg, x)
		awaitWaiting(t, p, waiting+i+1)
	}
}

// awaitWaiting returns once n requests wait in the pool and all of them
// are on the queue or past it: taking the close gate's write lock waits
// out every submitter between its admission and its send.
func awaitWaiting(t *testing.T, p *Pool, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for p.Stats().QueueDepth != n {
		if time.Now().After(deadline) {
			t.Fatalf("%d requests waiting, want %d", p.Stats().QueueDepth, n)
		}
		time.Sleep(100 * time.Microsecond)
	}
	p.closing.mu.Lock()
	p.closing.mu.Unlock()
}

func sameTags(got []float64, want ...float64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// An idle replica takes a lone request at once. Nothing else can flush
// it: the batch can never fill (MaxBatch 64) and no clock runs.
func TestIdleReplicaRunsLoneRequestAtOnce(t *testing.T) {
	p := newTestPool(t, Options{Replicas: 1, MaxBatch: 64, QueueSize: 16})
	setExec(p, stubDetect(nil))

	if _, err := p.Submit(context.Background(), clip(1)); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Served != 1 || st.Batches != 1 || st.BatchSizes[0] != 1 {
		t.Fatalf("stats %+v, want one batch of 1", st)
	}
}

// Requests coalesce while every replica is busy: what arrived behind a
// running batch leaves as one batch when the replica comes back.
func TestBusyPoolCoalescesWhatWaits(t *testing.T) {
	p := newTestPool(t, Options{Replicas: 1, MaxBatch: 8, QueueSize: 16})
	g := newStepper(t, p)

	var wg sync.WaitGroup
	g.occupy(t, p, &wg, tagged(0, 40))
	submitBehind(t, p, &wg, 0, tagged(1, 40), tagged(2, 40), tagged(3, 40), tagged(4, 40), tagged(5, 40))
	g.step()
	if got := g.next(t); !sameTags(got, 1, 2, 3, 4, 5) {
		t.Fatalf("second batch %v, want the five that waited, in order", got)
	}
	g.open()
	wg.Wait()
	if st := p.Stats(); st.Served != 6 || st.Batches != 2 || st.QueueDepth != 0 {
		t.Fatalf("stats %+v, want 6 served in 2 batches and nothing waiting", st)
	}
}

// More than MaxBatch waiting under one key leaves as a full batch, then
// the rest, first come first served.
func TestFullBatchFlush(t *testing.T) {
	p := newTestPool(t, Options{Replicas: 1, MaxBatch: 4, QueueSize: 16})
	g := newStepper(t, p)

	var wg sync.WaitGroup
	g.occupy(t, p, &wg, tagged(0, 40))
	submitBehind(t, p, &wg, 0, tagged(1, 40), tagged(2, 40), tagged(3, 40), tagged(4, 40), tagged(5, 40), tagged(6, 40))
	g.step()
	if got := g.next(t); !sameTags(got, 1, 2, 3, 4) {
		t.Fatalf("batch after the first %v, want 1..4", got)
	}
	if depth := p.Stats().QueueDepth; depth != 2 {
		t.Fatalf("%d waiting behind the full batch, want 2", depth)
	}
	g.step()
	if got := g.next(t); !sameTags(got, 5, 6) {
		t.Fatalf("last batch %v, want 5 and 6", got)
	}
	g.open()
	wg.Wait()
	if st := p.Stats(); st.Served != 7 || st.BatchSizes[3] != 1 || st.BatchSizes[1] != 1 {
		t.Fatalf("stats %+v, want 7 served with one batch of 4 and one of 2", st)
	}
}

// With two keys waiting the one whose head is older goes first, so a key
// that keeps receiving requests cannot starve the other.
func TestOldestHeadGoesFirst(t *testing.T) {
	p := newTestPool(t, Options{Replicas: 1, MaxBatch: 2, QueueSize: 16})
	g := newStepper(t, p)

	var wg sync.WaitGroup
	g.occupy(t, p, &wg, tagged(0, 40))
	// Arrival order a1 b1 a2 a3 b2 (a: 40×40, b: 64×64).
	submitBehind(t, p, &wg, 0, tagged(1, 40), tagged(11, 64), tagged(2, 40), tagged(3, 40), tagged(12, 64))
	for _, want := range [][]float64{{1, 2}, {11, 12}, {3}} {
		g.step()
		if got := g.next(t); !sameTags(got, want...) {
			t.Fatalf("batch %v, want %v", got, want)
		}
	}
	g.open()
	wg.Wait()
}

// A request cancelled while it waits never reaches a replica: the
// hand-off drops it, answers it and closes its span.
func TestCancelledWhileWaitingIsDroppedAtHandOff(t *testing.T) {
	tel := telemetry.New(telemetry.Options{})
	t.Cleanup(tel.Close) // after the pool's own Close
	p := newTestPool(t, Options{Replicas: 1, MaxBatch: 8, QueueSize: 16, Telemetry: tel})
	g := newStepper(t, p)

	var wg sync.WaitGroup
	g.occupy(t, p, &wg, tagged(0, 40))

	ctx, cancel := context.WithCancel(context.Background())
	gaveUp := make(chan error, 1)
	go func() {
		_, err := p.Submit(ctx, tagged(1, 40))
		gaveUp <- err
	}()
	awaitWaiting(t, p, 1)
	submitBehind(t, p, &wg, 1, tagged(2, 40))
	cancel()
	if err := <-gaveUp; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Submit: err=%v, want context.Canceled", err)
	}
	if depth := p.Stats().QueueDepth; depth != 2 {
		t.Fatalf("%d waiting, want 2: a cancelled request holds its place until the hand-off", depth)
	}

	g.step()
	if got := g.next(t); !sameTags(got, 2) {
		t.Fatalf("batch after the cancellation %v, want only request 2", got)
	}
	g.open()
	wg.Wait()
	st := p.Stats()
	if st.Served != 2 || st.Canceled != 1 || st.QueueDepth != 0 {
		t.Fatalf("stats %+v, want 2 served, 1 canceled, nothing waiting", st)
	}
	tel.Flush()
	spans := tel.Registry().Counter("drainnet_spans_total", "").Value()
	incomplete := tel.Registry().Counter("drainnet_spans_incomplete_total", "").Value()
	if spans != 3 || incomplete != 0 {
		t.Fatalf("%d spans closed, %d without a delivery; want all 3 closed by a delivery", spans, incomplete)
	}
}

// Admission is exact: with every replica running a batch, QueueSize more
// requests wait and the next one is refused, however they are spread
// between the queue and the dispatcher.
func TestQueueOverflow(t *testing.T) {
	const replicas, queueSize = 2, 3
	p := newTestPool(t, Options{Replicas: replicas, MaxBatch: 1, QueueSize: queueSize})
	g := newStepper(t, p)

	var wg sync.WaitGroup
	for i := 0; i < replicas; i++ {
		g.occupy(t, p, &wg, tagged(float32(i), 40))
	}
	submitBehind(t, p, &wg, 0, tagged(10, 40), tagged(11, 40), tagged(12, 40))
	if _, err := p.Submit(context.Background(), clip(1)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submit past the bound: err=%v, want ErrQueueFull", err)
	}

	// The gauge /v1/metrics exports follows the count at both ends.
	depth := p.tel.Registry().Gauge("drainnet_queue_depth", "")
	if depth.Value() != queueSize {
		t.Fatalf("drainnet_queue_depth %v with %d waiting", depth.Value(), queueSize)
	}
	g.open()
	wg.Wait()
	st := p.Stats()
	if st.Served != replicas+queueSize || st.Rejected != 1 {
		t.Fatalf("served %d rejected %d, want %d/1", st.Served, st.Rejected, replicas+queueSize)
	}
	if depth.Value() != 0 || st.QueueDepth != 0 {
		t.Fatalf("drainnet_queue_depth %v, stats %d after the burst drained, want 0", depth.Value(), st.QueueDepth)
	}
}

// A SubmitAll that meets the bound part-way admits the clips that fit, in
// order, and refuses the rest; they run together as one batch.
func TestSubmitAllPartialAdmission(t *testing.T) {
	p := newTestPool(t, Options{Replicas: 1, MaxBatch: 8, QueueSize: 3})
	g := newStepper(t, p)
	g.open()

	clips := make([]Clip, 5)
	for i := range clips {
		clips[i] = Clip{Ctx: context.Background(), X: tagged(float32(i), 40)}
	}
	clips[1].X = tensor.New(4, 40, 40) // refused before admission: takes no room
	p.SubmitAll(clips)
	for i, c := range clips {
		switch {
		case i == 1:
			if c.Err == nil || errors.Is(c.Err, ErrQueueFull) {
				t.Fatalf("rank-3 clip: err=%v, want a shape error", c.Err)
			}
		case i < 4:
			if c.Err != nil || c.Det.Score != float64(i) || c.Abandoned {
				t.Fatalf("clip %d: %+v, want its own detection", i, c)
			}
		default:
			if !errors.Is(c.Err, ErrQueueFull) || c.Abandoned {
				t.Fatalf("clip %d: err=%v abandoned=%v, want ErrQueueFull", i, c.Err, c.Abandoned)
			}
		}
	}
	if got := g.next(t); !sameTags(got, 0, 2, 3) {
		t.Fatalf("batch %v, want the three admitted clips together", got)
	}
	if st := p.Stats(); st.Served != 3 || st.Rejected != 1 || st.Batches != 1 {
		t.Fatalf("stats %+v, want 3 served in one batch and 1 rejected", st)
	}
}

// Close serves everything already accepted, including what still waits in
// the dispatcher's FIFOs behind a running batch.
func TestGracefulDrain(t *testing.T) {
	cfg := tinyConfig()
	p, err := New(cfg, tinyNet(t, cfg), Options{Replicas: 1, MaxBatch: 2, QueueSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	g := newStepper(t, p)

	var wg sync.WaitGroup
	g.occupy(t, p, &wg, tagged(0, 40))
	submitBehind(t, p, &wg, 0, tagged(1, 40), tagged(2, 64), tagged(3, 40))

	closed := make(chan struct{})
	go func() {
		p.Close()
		close(closed)
	}()
	// Close must wait for the backlog, not abandon it.
	select {
	case <-closed:
		t.Fatal("Close returned with a batch running and three requests waiting")
	case <-time.After(20 * time.Millisecond):
	}
	g.open()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not drain")
	}

	// Every accepted request was answered (submitAsync reports errors).
	wg.Wait()
	if st := p.Stats(); st.Served != 4 || st.QueueDepth != 0 {
		t.Fatalf("stats %+v, want 4 served and nothing waiting", st)
	}
	if _, err := p.Submit(context.Background(), clip(1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: err=%v, want ErrClosed", err)
	}
}

// What one Submit on an idle pool allocates: the request, its done
// channel and its slot in the dispatcher's FIFO. Submit is SubmitAll with
// one clip; the grouped entry point must not cost a lone clip more.
func TestSubmitSteadyStateAllocs(t *testing.T) {
	p := newTestPool(t, Options{Replicas: 1, MaxBatch: 8, QueueSize: 16})
	x := clip(1)
	submit := func() {
		if _, err := p.Submit(context.Background(), x); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		submit() // warm the replica's arena
	}
	if allocs := testing.AllocsPerRun(50, submit); allocs > 3 {
		t.Fatalf("%.1f allocations per Submit on an idle pool, want ≤ 3", allocs)
	}
}

// What one 16-clip SubmitAll on an idle pool allocates — the hand-off of
// a sweep unit: the request slice, a done channel per clip and the
// dispatcher's FIFO. The batch-16 forward behind it (the FC layers'
// GEMM route included) must add nothing.
func TestSubmitAllSteadyStateAllocs(t *testing.T) {
	const n = 16
	p := newTestPool(t, Options{Replicas: 1, MaxBatch: n, QueueSize: 64})
	clips := make([]Clip, n)
	xs := make([]*tensor.Tensor, n)
	for i := range xs {
		xs[i] = clip(int64(i))
	}
	submit := func() {
		for i := range clips {
			clips[i] = Clip{Ctx: context.Background(), X: xs[i]}
		}
		p.SubmitAll(clips)
		for i, c := range clips {
			if c.Err != nil {
				t.Fatalf("clip %d: %v", i, c.Err)
			}
		}
	}
	for i := 0; i < 5; i++ {
		submit() // warm the replica's arena at every batch size a unit splits into
	}
	// 1 request slice + 16 done channels + 5 growths of the FIFO (1 → 16).
	if allocs := testing.AllocsPerRun(50, submit); allocs > n+6 {
		t.Fatalf("%.1f allocations per %d-clip SubmitAll on an idle pool, want ≤ %d", allocs, n, n+6)
	}
}

func TestSubmitContextCancellation(t *testing.T) {
	block := make(chan struct{})
	p := newTestPool(t, Options{Replicas: 1, MaxBatch: 1, QueueSize: 16})
	setExec(p, stubDetect(block))
	defer close(block)

	// Occupy the replica so the canceled request sits in the pipeline.
	go p.Submit(context.Background(), clip(1))

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := p.Submit(ctx, clip(2))
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err=%v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled Submit did not return")
	}
}

func TestSubmitTimeout(t *testing.T) {
	block := make(chan struct{})
	p := newTestPool(t, Options{Replicas: 1, MaxBatch: 1, QueueSize: 16})
	setExec(p, stubDetect(block))
	defer close(block)

	go p.Submit(context.Background(), clip(1))

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := p.Submit(ctx, clip(2)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err=%v, want DeadlineExceeded", err)
	}
}

func TestConcurrentLoadExercisesAllReplicas(t *testing.T) {
	const replicas = 4
	p := newTestPool(t, Options{Replicas: replicas, MaxBatch: 2, QueueSize: 256})
	slow := stubDetect(nil)
	setExec(p, func(x *tensor.Tensor) []metrics.Detection {
		time.Sleep(2 * time.Millisecond) // long enough that workers overlap
		return slow(x)
	})

	const load = 64
	var wg sync.WaitGroup
	for i := 0; i < load; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := p.Submit(context.Background(), clip(7)); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	st := p.Stats()
	if st.Served != load {
		t.Fatalf("served %d, want %d", st.Served, load)
	}
	for id, n := range st.PerReplica {
		if n == 0 {
			t.Fatalf("replica %d served nothing under load: %v", id, st.PerReplica)
		}
	}
}

func TestBatchedResultsDeterministic(t *testing.T) {
	cfg := tinyConfig()
	refNet := tinyNet(t, cfg) // same seed ⇒ same weights as the pool's net

	a, b := clip(100), clip(200)
	refA := model.Detect(refNet, a)[0]
	refB := model.Detect(refNet, b)[0]

	p := newTestPool(t, Options{Replicas: 3, MaxBatch: 4, QueueSize: 256})

	const rounds = 24
	var wg sync.WaitGroup
	for i := 0; i < rounds; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			x, want := a, refA
			if i%2 == 1 {
				x, want = b, refB
			}
			got, err := p.Submit(context.Background(), x)
			if err != nil {
				t.Error(err)
				return
			}
			// Per-sample paths are independent of batch composition and
			// replica choice, so results are bitwise reproducible.
			if got != want {
				t.Errorf("request %d: got %+v, want %+v", i, got, want)
			}
		}(i)
	}
	wg.Wait()
}

func TestMixedShapesBatchSeparately(t *testing.T) {
	p := newTestPool(t, Options{Replicas: 1, MaxBatch: 8, QueueSize: 64})
	setExec(p, stubDetect(nil))

	shapes := []*tensor.Tensor{
		tensor.New(1, 4, 40, 40),
		tensor.New(1, 4, 64, 64),
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := p.Submit(context.Background(), shapes[i%2]); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if st := p.Stats(); st.Served != 8 {
		t.Fatalf("served %d, want 8", st.Served)
	}
}

func TestSubmitRejectsBadTensor(t *testing.T) {
	p := newTestPool(t, Options{Replicas: 1})
	if _, err := p.Submit(context.Background(), tensor.New(2, 4, 40, 40)); err == nil {
		t.Fatal("batch-of-2 tensor accepted; want error")
	}
	if _, err := p.Submit(context.Background(), tensor.New(4, 40, 40)); err == nil {
		t.Fatal("rank-3 tensor accepted; want error")
	}
}

func TestNewRejectsMismatchedConfig(t *testing.T) {
	cfg := tinyConfig()
	net := tinyNet(t, cfg)
	other := model.SPPNet2().Scaled(16).WithInput(4, 40) // different FC width
	if _, err := New(other, net, Options{Replicas: 2}); err == nil {
		t.Fatal("mismatched config accepted; want clone error")
	}
}
