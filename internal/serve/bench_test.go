package serve

import (
	"bytes"
	"context"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"drainnet/internal/model"
	"drainnet/internal/nn"
	"drainnet/internal/serve/batcher"
	"drainnet/internal/tensor"
)

// benchConcurrency matches the acceptance setup: 16 concurrent clients.
const benchConcurrency = 16

func benchNet(b *testing.B) (model.Config, *nn.Sequential) {
	b.Helper()
	cfg := model.SPPNet2().Scaled(16).WithInput(4, 40)
	net, err := cfg.Build(rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	return cfg, net
}

func benchClip() *tensor.Tensor {
	x := tensor.New(1, 4, 40, 40)
	rng := rand.New(rand.NewSource(7))
	for i := range x.Data() {
		x.Data()[i] = rng.Float32()
	}
	return x
}

// BenchmarkServeThroughput compares the seed's single-mutex serving path
// against the batched multi-replica pool at concurrency 16 on the same
// model. Requests/sec is the inverse of ns/op; the pool additionally
// reports its realized mean batch size. Replica parallelism needs
// GOMAXPROCS > 1 to pay off; batching pays off on any core count.
func BenchmarkServeThroughput(b *testing.B) {
	if runtime.GOMAXPROCS(0) == 1 {
		b.Skip("replica parallelism needs GOMAXPROCS > 1: on a single " +
			"core the pool and the mutex both serialize forward passes, so " +
			"the comparison measures scheduler noise, not batching")
	}
	b.Run("single-mutex", func(b *testing.B) {
		_, net := benchNet(b)
		var mu sync.Mutex
		x := benchClip()
		b.SetParallelism(benchConcurrency)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				mu.Lock()
				_ = model.Detect(net, x)[0]
				mu.Unlock()
			}
		})
	})

	b.Run("batched-pool", func(b *testing.B) {
		cfg, net := benchNet(b)
		pool, err := batcher.New(cfg, net, batcher.Options{
			Replicas:  runtime.GOMAXPROCS(0),
			MaxBatch:  benchConcurrency,
			QueueSize: 4 * benchConcurrency,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer pool.Close()
		x := benchClip()
		b.SetParallelism(benchConcurrency)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				// Retry on backpressure: a benchmark client just spins.
				for {
					_, err := pool.Submit(context.Background(), x)
					if err == nil {
						break
					}
					if err != batcher.ErrQueueFull {
						b.Error(err)
						return
					}
				}
			}
		})
		b.StopTimer()
		b.ReportMetric(pool.Stats().MeanBatch, "clips/batch")
	})
}

// benchDecode times the request decoders on body as the handlers run
// them: the pooled one-pass scanner as it serves on this host, the same
// scanner on its scalar path (the pixel-run kernel off), and the
// encoding/json + validate pair it replaced, kept here as the reference.
func benchDecode(b *testing.B, body []byte, scan, reference func(s *Server) error) {
	s := schemaServer()
	for _, c := range []struct {
		name   string
		decode func(s *Server) error
		scalar bool
	}{{"scanner", scan, false}, {"scalar", scan, true}, {"encoding-json", reference, false}} {
		b.Run(c.name, func(b *testing.B) {
			had := usePixelRun
			defer func() { usePixelRun = had }()
			usePixelRun = usePixelRun && !c.scalar
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := c.decode(s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// errOrNil keeps a nil *apiError from becoming a non-nil error.
func errOrNil(e *apiError) error {
	if e == nil {
		return nil
	}
	return e
}

func BenchmarkDecodeSingle(b *testing.B) {
	body := harnessClip(1, 40)
	benchDecode(b, body, func(s *Server) error {
		d := clipDecoders.Get().(*clipDecoder)
		defer d.release()
		if err := d.read(bytes.NewReader(body), int64(len(body))); err != nil {
			return err
		}
		return errOrNil(s.scanDetect(d))
	}, func(s *Server) error {
		_, e := s.referenceDetect(body)
		return errOrNil(e)
	})
}

func BenchmarkDecodeBatch16(b *testing.B) {
	clips := make([][]byte, 16)
	for i := range clips {
		clips[i] = harnessClip(int64(i), 40)
	}
	body := batchBody(clips...)
	benchDecode(b, body, func(s *Server) error {
		d := clipDecoders.Get().(*clipDecoder)
		defer d.release()
		if err := d.read(bytes.NewReader(body), int64(len(body))); err != nil {
			return err
		}
		if e := s.scanBatch(d); e != nil {
			return e
		}
		for i := range d.items[:d.count] {
			if e := s.checkClip(&d.items[i]); e != nil {
				return e
			}
		}
		return nil
	}, func(s *Server) error {
		_, errs, e := s.referenceBatch(body)
		for _, ie := range errs {
			if ie != nil {
				return ie
			}
		}
		return errOrNil(e)
	})
}
