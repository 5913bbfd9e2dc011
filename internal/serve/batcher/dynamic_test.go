package batcher

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"drainnet/internal/metrics"
	"drainnet/internal/model"
	"drainnet/internal/nn"
	"drainnet/internal/tensor"
	"drainnet/internal/terrain"
)

// dynCalib builds a separable synthetic split for the dynamic plan:
// negatives are near-flat background, positives carry a bright blob —
// the empty-tile skew the sweep traffic has.
func dynCalib(rng *rand.Rand, n int) *terrain.Dataset {
	ds := &terrain.Dataset{ClipSize: 40}
	for i := 0; i < n; i++ {
		img := tensor.New(4, 40, 40)
		data := img.Data()
		for j := range data {
			ch := j / (40 * 40)
			data[j] = 0.1*float32(ch) + 0.01*float32(rng.NormFloat64())
		}
		s := terrain.Sample{Image: img}
		if i%2 == 0 {
			r0, c0 := 8+rng.Intn(16), 8+rng.Intn(16)
			for ch := 0; ch < 4; ch++ {
				for r := r0; r < r0+8; r++ {
					for c := c0; c < c0+8; c++ {
						data[(ch*40+r)*40+c] += 3 + float32(rng.NormFloat64())
					}
				}
			}
			s.Target = nn.DetectionTarget{
				HasObject: true,
				CX:        (float32(c0) + 4) / 40,
				CY:        (float32(r0) + 4) / 40,
				W:         0.2, H: 0.2,
			}
		}
		ds.Samples = append(ds.Samples, s)
	}
	return ds
}

// dynClip renders one clip in the calibration distribution: empty
// background or background + blob.
func dynClip(seed int64, positive bool) *tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	x := tensor.New(1, 4, 40, 40)
	data := x.Data()
	for j := range data {
		ch := j / (40 * 40)
		data[j] = 0.1*float32(ch) + 0.01*float32(rng.NormFloat64())
	}
	if positive {
		for ch := 0; ch < 4; ch++ {
			for r := 14; r < 22; r++ {
				for c := 14; c < 22; c++ {
					data[(ch*40+r)*40+c] += 3 + float32(rng.NormFloat64())
				}
			}
		}
	}
	return x
}

// compileDynamic compiles the test net for dynamic serving against a
// synthetic calibration split.
func compileDynamic(t *testing.T, cfg model.Config, net *nn.Sequential, seed int64, precision model.Precision) *model.Plan {
	t.Helper()
	compiled, err := model.Compile(cfg, net, func() (*terrain.Dataset, error) {
		return dynCalib(rand.New(rand.NewSource(seed)), 48), nil
	}, model.CompileOptions{Dynamic: true, Precision: precision, MaxAPDrop: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	return compiled
}

// A pool serving a dynamic plan must answer mixed traffic through the
// dynamic executors, account exits and mask skips in Stats, and leave
// positives on the full-path score scale.
func TestDynamicPoolServesAndAccountsExits(t *testing.T) {
	cfg := tinyConfig()
	net := tinyNet(t, cfg)
	compiled := compileDynamic(t, cfg, net, 41, model.PrecisionFP32)
	plan := compiled.Dynamic
	if !plan.ExitEnabled {
		t.Fatalf("exit demoted on separable calibration (drop %v)", plan.Drop)
	}
	p, err := New(cfg, net, Options{
		Replicas: 2, MaxBatch: 4, QueueSize: 64,
		Plan: compiled,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	const n = 32
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = p.Submit(context.Background(), dynClip(int64(i), i%4 == 0))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}

	st := p.Stats()
	if !st.DynamicEnabled {
		t.Fatal("stats do not report the dynamic path")
	}
	if st.ExitRate <= 0 {
		t.Fatalf("exit rate %v after mostly-empty traffic, want > 0", st.ExitRate)
	}
	if plan.MaskEnabled && st.MaskRate <= 0 {
		t.Fatalf("mask rate %v with masking enabled, want > 0", st.MaskRate)
	}
	if st.Served != n {
		t.Fatalf("served %d, want %d", st.Served, n)
	}
}

// With a router-enabled plan and an int8 net, Submit must route each
// request and the pool must batch the two paths separately — both
// routed counters move and every request still gets an answer.
func TestDynamicPoolRoutesPerRequestPrecision(t *testing.T) {
	cfg := tinyConfig()
	net := tinyNet(t, cfg)
	compiled := compileDynamic(t, cfg, net, 43, model.PrecisionAuto)
	if !compiled.Quant.Enabled {
		t.Fatalf("int8 gate failed on the calibration split (drop %v)", compiled.Quant.Drop)
	}
	if !compiled.Dynamic.RouterEnabled {
		t.Fatal("router not trained despite int8 gate")
	}
	p, err := New(cfg, net, Options{
		Replicas: 2, MaxBatch: 4, QueueSize: 64,
		Plan: compiled,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	const n = 48
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = p.Submit(context.Background(), dynClip(int64(i), i%2 == 0))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	st := p.Stats()
	if st.RoutedInt8 == 0 || st.RoutedFP32 == 0 {
		t.Fatalf("router sent everything one way: int8=%d fp32=%d", st.RoutedInt8, st.RoutedFP32)
	}
	if st.RoutedInt8+st.RoutedFP32 != n {
		t.Fatalf("routed %d, want %d", st.RoutedInt8+st.RoutedFP32, n)
	}
}

// The router runs on admitted clips only: a SubmitAll that meets the
// queue bound part-way must not route, or count in the routed totals,
// the clips it refuses — a sweep retries those, and would count them
// again.
func TestRefusedClipsAreNotRouted(t *testing.T) {
	cfg := tinyConfig()
	net := tinyNet(t, cfg)
	compiled := compileDynamic(t, cfg, net, 43, model.PrecisionAuto)
	if compiled.Router == nil {
		t.Fatal("plan does not route")
	}
	const queueSize = 2
	p, err := New(cfg, net, Options{Replicas: 1, MaxBatch: 1, QueueSize: queueSize, Plan: compiled})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	block, entered := make(chan struct{}), make(chan struct{}, 8)
	held := stubExec(func(x *tensor.Tensor) []metrics.Detection {
		entered <- struct{}{}
		<-block
		return stubDetect(nil)(x)
	})
	for _, rep := range p.reps {
		rep.exec, rep.execInt8 = held, held
	}

	var wg sync.WaitGroup
	submitAsync(t, p, &wg, dynClip(1, true))
	<-entered // the replica is held inside the first clip's batch

	clips := make([]Clip, 5)
	for i := range clips {
		clips[i] = Clip{Ctx: context.Background(), X: dynClip(int64(10+i), i%2 == 0)}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.SubmitAll(clips)
	}()
	awaitWaiting(t, p, queueSize)
	close(block)
	<-done
	wg.Wait()

	admitted := 0
	for i, c := range clips {
		switch {
		case c.Err == nil:
			admitted++
		case !errors.Is(c.Err, ErrQueueFull):
			t.Fatalf("clip %d: %v", i, c.Err)
		}
	}
	if admitted != queueSize {
		t.Fatalf("%d clips admitted, want %d", admitted, queueSize)
	}
	if st := p.Stats(); st.RoutedFP32+st.RoutedInt8 != uint64(1+admitted) {
		t.Fatalf("routed fp32 %d + int8 %d, want the %d admitted clips", st.RoutedFP32, st.RoutedInt8, 1+admitted)
	}
}
