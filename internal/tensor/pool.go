package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Ranger is a unit of data-parallel work: RunRange processes the
// half-open index range [lo, hi). The pool invokes RunRange concurrently
// on disjoint ranges, so implementations must only write state owned by
// the indices they were handed.
//
// Hot-path callers keep a Ranger implementation as a struct field and
// pass its address, so entering a parallel region allocates nothing.
type Ranger interface {
	RunRange(lo, hi int)
}

// task is one parallel region flowing through the shared worker pool.
// The pool serializes regions (see workPool.mu), so a single descriptor
// is reused forever and submitting a region never allocates.
type task struct {
	r     Ranger
	n     int
	chunk int
	// next is the claim cursor: claimants atomically advance it by chunk
	// and own the indices they stepped over. This is the work-stealing
	// loop — a slow worker simply claims fewer chunks.
	next atomic.Int64
	// remaining counts outstanding obligations: n indices to process plus
	// one retirement per enqueued helper slot. Whoever drops it to zero
	// sends the single completion token on done.
	remaining atomic.Int64
	done      chan struct{} // buffered(1)
}

// help claims and runs chunks until the cursor passes n, returning how
// many indices it processed.
func (t *task) help() int64 {
	n := int64(t.n)
	step := int64(t.chunk)
	var did int64
	for {
		hi := t.next.Add(step)
		lo := hi - step
		if lo >= n {
			return did
		}
		if hi > n {
			hi = n
		}
		t.r.RunRange(int(lo), int(hi))
		did += hi - lo
	}
}

// retire discharges k obligations; the retirement that reaches zero
// publishes the completion token. A zero retirement discharges nothing
// and must not test for completion: the caller retires 0 when helpers
// claimed every chunk, and observing remaining == 0 then would publish
// a duplicate token after the true last retirer already sent one.
func (t *task) retire(k int64) {
	if k != 0 && t.remaining.Add(-k) == 0 {
		t.done <- struct{}{}
	}
}

// workPool is the persistent shared worker pool: GOMAXPROCS-1 goroutines
// parked on a queue, started lazily on first use and reused for every
// parallel region in the process. One region runs at a time (mu); a
// region submitted while another is in flight — including a nested
// ParallelRange issued from inside a worker — degrades to inline serial
// execution on the caller, which both avoids deadlock and avoids
// oversubscribing cores that are already busy.
var workPool struct {
	once    sync.Once
	workers int
	queue   chan *task
	mu      sync.Mutex
	cur     task
}

func startWorkers() {
	p := &workPool
	p.workers = runtime.GOMAXPROCS(0) - 1
	if p.workers < 0 {
		p.workers = 0
	}
	p.queue = make(chan *task, p.workers)
	p.cur.done = make(chan struct{}, 1)
	for i := 0; i < p.workers; i++ {
		go func() {
			for t := range p.queue {
				did := t.help()
				t.retire(did + 1) // +1 retires this queue slot
			}
		}()
	}
}

// PoolWorkers reports how many persistent workers back ParallelRange
// (0 on a single-core configuration, where every region runs inline).
func PoolWorkers() int {
	workPool.once.Do(startWorkers)
	return workPool.workers
}

// ParallelRange runs r over [0, n) in chunks of at least grain indices
// using the persistent shared worker pool. The calling goroutine
// participates in the work, so ParallelRange never blocks waiting for a
// free worker and is safe to call from inside another parallel region
// (the nested region runs inline). It allocates nothing in steady state.
func ParallelRange(n, grain int, r Ranger) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	workPool.once.Do(startWorkers)
	if workPool.workers == 0 || n <= grain || !workPool.mu.TryLock() {
		r.RunRange(0, n)
		return
	}
	t := &workPool.cur
	t.r = r
	t.n = n
	// Coarsen the chunk so a region costs O(workers) atomics, not O(n),
	// while still leaving ~4 chunks per participant for load balance.
	chunk := n / (4 * (workPool.workers + 1))
	if chunk < grain {
		chunk = grain
	}
	t.chunk = chunk
	chunks := (n + chunk - 1) / chunk
	helpers := workPool.workers
	if chunks-1 < helpers {
		helpers = chunks - 1
	}
	t.next.Store(0)
	t.remaining.Store(int64(n + helpers))
	for i := 0; i < helpers; i++ {
		workPool.queue <- t
	}
	did := t.help()
	t.retire(did)
	// Exactly one token is sent per region, by whichever participant
	// retired the last obligation (possibly this goroutine).
	<-t.done
	t.r = nil
	workPool.mu.Unlock()
}

// funcRanger adapts a per-index closure to the Ranger interface for the
// legacy ParallelFor API. It allocates (the closure escapes), which is
// fine on training paths; inference paths use ParallelRange directly
// with persistent Ranger structs.
type funcRanger struct{ f func(i int) }

func (fr *funcRanger) RunRange(lo, hi int) {
	for i := lo; i < hi; i++ {
		fr.f(i)
	}
}

// parallelFor runs f(i) for i in [0,n) across the shared pool when n is
// large enough, else serially.
func parallelFor(n int, f func(i int)) {
	if n <= 0 {
		return
	}
	if n < 4 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	fr := funcRanger{f: f}
	ParallelRange(n, 1, &fr)
}

// ParallelFor exposes the engine's worker pool for callers that want to
// parallelize per-sample work (e.g. batched convolution backward).
func ParallelFor(n int, f func(i int)) { parallelFor(n, f) }
