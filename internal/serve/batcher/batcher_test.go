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

func (f stubExec) InferDetectTraced(x *tensor.Tensor, _ *tensor.Arena, _ []metrics.Detection, _ model.Trace) []metrics.Detection {
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

func TestFullBatchFlush(t *testing.T) {
	p := newTestPool(t, Options{Replicas: 1, MaxBatch: 4, MaxWait: time.Hour, QueueSize: 16})
	setExec(p, stubDetect(nil))

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := p.Submit(context.Background(), clip(1)); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	st := p.Stats()
	if st.Served != 4 {
		t.Fatalf("served %d, want 4", st.Served)
	}
	// MaxWait is an hour, so the only way these completed is the
	// full-batch flush; everything must have ridden one forward pass.
	if st.Batches != 1 || st.BatchSizes[3] != 1 {
		t.Fatalf("batches %d histogram %v, want one batch of 4", st.Batches, st.BatchSizes)
	}
}

func TestMaxWaitFlush(t *testing.T) {
	p := newTestPool(t, Options{Replicas: 1, MaxBatch: 64, MaxWait: 10 * time.Millisecond, QueueSize: 16})
	setExec(p, stubDetect(nil))

	start := time.Now()
	if _, err := p.Submit(context.Background(), clip(1)); err != nil {
		t.Fatal(err)
	}
	// The batch can never fill (one request, MaxBatch 64): completion
	// proves the max-wait timer flushed the partial batch.
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("partial batch took %v to flush", waited)
	}
	st := p.Stats()
	if st.Served != 1 || st.Batches != 1 || st.BatchSizes[0] != 1 {
		t.Fatalf("stats %+v, want one batch of 1", st)
	}
}

func TestQueueOverflow(t *testing.T) {
	block := make(chan struct{})
	p := newTestPool(t, Options{Replicas: 1, MaxBatch: 1, MaxWait: time.Millisecond, QueueSize: 2})
	setExec(p, stubDetect(block))

	// Unblock the stubbed replica even when an assertion fails mid-test;
	// otherwise the pool's cleanup Close hangs on the parked worker.
	var once sync.Once
	unblock := func() { once.Do(func() { close(block) }) }
	defer unblock()

	// Capacity while the single replica is blocked: 1 in the worker, 1 in
	// the work buffer, 1 held by the stalled dispatcher, 2 in the queue.
	// Submissions are paced so the dispatcher keeps up and none of these
	// five sees a transiently full queue (Submit is fail-fast by design).
	const inFlight = 5
	var wg sync.WaitGroup
	for i := 0; i < inFlight; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := p.Submit(context.Background(), clip(1)); err != nil {
				t.Error(err)
			}
		}()
		time.Sleep(10 * time.Millisecond)
	}

	// Wait until the pipeline is saturated (bounded queue at capacity).
	deadline := time.Now().Add(5 * time.Second)
	for p.Stats().QueueDepth < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("queue never filled: %+v", p.Stats())
		}
		time.Sleep(time.Millisecond)
	}

	if _, err := p.Submit(context.Background(), clip(1)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit: err=%v, want ErrQueueFull", err)
	}

	unblock()
	wg.Wait()
	st := p.Stats()
	if st.Served != inFlight || st.Rejected != 1 {
		t.Fatalf("served %d rejected %d, want %d/1", st.Served, st.Rejected, inFlight)
	}
}

func TestGracefulDrain(t *testing.T) {
	const n = 3
	block := make(chan struct{})
	entered := make(chan struct{}, 1)
	cfg := tinyConfig()
	p, err := New(cfg, tinyNet(t, cfg), Options{Replicas: 1, MaxBatch: n, MaxWait: time.Hour, QueueSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	inner := stubDetect(nil)
	setExec(p, func(x *tensor.Tensor) []metrics.Detection {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-block
		return inner(x)
	})

	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = p.Submit(context.Background(), clip(1))
		}(i)
	}
	// MaxBatch = n with an hour of wait budget: the worker only enters
	// detect once all n requests were accepted and coalesced.
	<-entered

	closed := make(chan struct{})
	go func() {
		p.Close()
		close(closed)
	}()
	close(block) // release the in-flight batch so the drain can finish
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not drain")
	}

	// Close must not return before every accepted request was answered.
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d failed during drain: %v", i, err)
		}
	}
	if st := p.Stats(); st.Served != n {
		t.Fatalf("served %d, want %d", st.Served, n)
	}
	if _, err := p.Submit(context.Background(), clip(1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: err=%v, want ErrClosed", err)
	}
}

func TestSubmitContextCancellation(t *testing.T) {
	block := make(chan struct{})
	p := newTestPool(t, Options{Replicas: 1, MaxBatch: 1, MaxWait: time.Millisecond, QueueSize: 16})
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
	p := newTestPool(t, Options{Replicas: 1, MaxBatch: 1, MaxWait: time.Millisecond, QueueSize: 16})
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
	p := newTestPool(t, Options{Replicas: replicas, MaxBatch: 2, MaxWait: time.Millisecond, QueueSize: 256})
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

	p := newTestPool(t, Options{Replicas: 3, MaxBatch: 4, MaxWait: time.Millisecond, QueueSize: 256})

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
	p := newTestPool(t, Options{Replicas: 1, MaxBatch: 8, MaxWait: 5 * time.Millisecond, QueueSize: 64})
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
