package tensor

import (
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestMain raises GOMAXPROCS on single-core runners so the worker pool
// actually spawns workers and the parallel dispatch paths (claim loop,
// retirement accounting, nesting degradation) are exercised — including
// under -race. The pool sizes itself lazily on first use, so this must
// run before any test touches ParallelRange.
func TestMain(m *testing.M) {
	if runtime.GOMAXPROCS(0) < 4 {
		runtime.GOMAXPROCS(4)
	}
	os.Exit(m.Run())
}

func TestPoolWorkers(t *testing.T) {
	if got, want := PoolWorkers(), runtime.GOMAXPROCS(0)-1; got != want {
		t.Fatalf("PoolWorkers() = %d, want %d", got, want)
	}
}

type countRanger struct{ hits []atomic.Int32 }

func (c *countRanger) RunRange(lo, hi int) {
	for i := lo; i < hi; i++ {
		c.hits[i].Add(1)
	}
}

func TestParallelRangeCoversEveryIndexExactlyOnce(t *testing.T) {
	for _, n := range []int{1, 2, 7, 64, 1000, 4096} {
		for _, grain := range []int{1, 8, 100} {
			c := &countRanger{hits: make([]atomic.Int32, n)}
			ParallelRange(n, grain, c)
			for i := range c.hits {
				if got := c.hits[i].Load(); got != 1 {
					t.Fatalf("n=%d grain=%d: index %d run %d times", n, grain, i, got)
				}
			}
		}
	}
}

type nestedRanger struct {
	inner []atomic.Int32
	m     int
}

func (r *nestedRanger) RunRange(lo, hi int) {
	for i := lo; i < hi; i++ {
		// A nested region from inside a worker must degrade to inline
		// execution instead of deadlocking on the pool.
		c := &countRanger{hits: r.inner[i*r.m : (i+1)*r.m]}
		ParallelRange(r.m, 1, c)
	}
}

func TestParallelRangeNestedRunsInline(t *testing.T) {
	const n, m = 16, 32
	r := &nestedRanger{inner: make([]atomic.Int32, n*m), m: m}
	ParallelRange(n, 1, r)
	for i := range r.inner {
		if got := r.inner[i].Load(); got != 1 {
			t.Fatalf("nested index %d run %d times", i, got)
		}
	}
}

func TestParallelRangeConcurrentCallers(t *testing.T) {
	// Concurrent regions from independent goroutines (the multi-replica
	// serving shape): one wins the pool, the rest run inline; all must
	// produce complete coverage.
	const callers, n = 8, 500
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				c := &countRanger{hits: make([]atomic.Int32, n)}
				ParallelRange(n, 1, c)
				for i := range c.hits {
					if got := c.hits[i].Load(); got != 1 {
						t.Errorf("index %d run %d times", i, got)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

func TestParallelForMatchesSerial(t *testing.T) {
	const n = 257
	got := make([]int32, n)
	ParallelFor(n, func(i int) { atomic.AddInt32(&got[i], int32(i)) })
	for i := range got {
		if got[i] != int32(i) {
			t.Fatalf("ParallelFor index %d = %d", i, got[i])
		}
	}
}

func TestParallelRangeZeroAndNegative(t *testing.T) {
	c := &countRanger{hits: make([]atomic.Int32, 1)}
	ParallelRange(0, 1, c)  // must not touch anything
	ParallelRange(-5, 1, c) // must not touch anything
	if c.hits[0].Load() != 0 {
		t.Fatal("empty range ran work")
	}
}
