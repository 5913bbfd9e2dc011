package cluster

import (
	"fmt"
	"log"
	"math"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"drainnet/internal/telemetry"
)

// WorkerState is one worker slot's lifecycle position.
type WorkerState int32

const (
	// WorkerStarting: process spawned, readiness probe not yet passed.
	WorkerStarting WorkerState = iota
	// WorkerReady: readiness probe passed; the router may send traffic.
	WorkerReady
	// WorkerDraining: drain signalled; in-flight finishes, no new work.
	WorkerDraining
	// WorkerDown: process exited (crash or drain complete).
	WorkerDown
)

// String implements fmt.Stringer ("starting", "ready", ...).
func (s WorkerState) String() string {
	switch s {
	case WorkerStarting:
		return "starting"
	case WorkerReady:
		return "ready"
	case WorkerDraining:
		return "draining"
	case WorkerDown:
		return "down"
	default:
		return fmt.Sprintf("state(%d)", int32(s))
	}
}

// Worker is one supervised worker slot: the current process, its
// address, and the live accounting the router routes on.
type Worker struct {
	id int

	mu     sync.Mutex
	proc   Process
	addr   string
	client *workerClient

	state   atomic.Int32
	healthy atomic.Bool // scrape reachability; routing needs Ready && healthy

	inflight   atomic.Int64  // requests the router currently has open here
	queueDepth atomic.Int64  // last scraped drainnet_queue_depth
	served     atomic.Uint64 // responses proxied from this worker
	restarts   atomic.Uint64

	// Last known batching tuning (from /v1/model at ready, then retunes).
	maxBatchCeil atomic.Int64 // configured -max-batch (retune ceiling)
	curMaxBatch  atomic.Int64

	// latencyP95 is the last scraped request-latency p95 in seconds
	// (bits of a float64); 0 until first observation.
	latencyP95 atomic.Uint64
}

// WorkerStatus is the JSON shape of one worker in GET /v1/cluster.
type WorkerStatus struct {
	ID         int     `json:"id"`
	Pid        int     `json:"pid"`
	Addr       string  `json:"addr"`
	State      string  `json:"state"`
	Healthy    bool    `json:"healthy"`
	Inflight   int64   `json:"inflight"`
	QueueDepth int64   `json:"queue_depth"`
	Served     uint64  `json:"served"`
	Restarts   uint64  `json:"restarts"`
	MaxBatch   int64   `json:"max_batch"`
	P95Ms      float64 `json:"latency_p95_ms"`
}

func (w *Worker) setState(s WorkerState) { w.state.Store(int32(s)) }

// State returns the slot's lifecycle state.
func (w *Worker) State() WorkerState { return WorkerState(w.state.Load()) }

// routable reports whether the router may send this worker traffic.
func (w *Worker) routable() bool { return w.State() == WorkerReady && w.healthy.Load() }

// load is the least-loaded routing score: requests the router has open
// against this worker plus its scraped queue depth. In-flight is exact
// and instantaneous; queue depth adds what other clients (e.g. direct
// worker traffic) contribute, at scrape-interval staleness.
func (w *Worker) load() int64 { return w.inflight.Load() + w.queueDepth.Load() }

func (w *Worker) setProc(p Process, addr string) {
	w.mu.Lock()
	w.proc, w.addr = p, addr
	w.client = newWorkerClient(addr)
	w.mu.Unlock()
}

func (w *Worker) snapshot() (Process, string, *workerClient) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.proc, w.addr, w.client
}

// Status returns the worker's current status snapshot.
func (w *Worker) Status() WorkerStatus {
	proc, addr, _ := w.snapshot()
	pid := 0
	if proc != nil {
		pid = proc.Pid()
	}
	return WorkerStatus{
		ID:         w.id,
		Pid:        pid,
		Addr:       addr,
		State:      w.State().String(),
		Healthy:    w.healthy.Load(),
		Inflight:   w.inflight.Load(),
		QueueDepth: w.queueDepth.Load(),
		Served:     w.served.Load(),
		Restarts:   w.restarts.Load(),
		MaxBatch:   w.curMaxBatch.Load(),
		P95Ms:      float64FromBits(w.latencyP95.Load()) * 1e3,
	}
}

// supervisor owns the worker slots: spawn, readiness, respawn with
// backoff, and drain propagation.
type supervisor struct {
	cfg      Config
	workers  []*Worker
	stopping atomic.Bool
	stopCh   chan struct{}
	wg       sync.WaitGroup
	respawns *telemetry.Counter // bound by the router; may be nil in tests
}

func newSupervisor(cfg Config) *supervisor {
	s := &supervisor{cfg: cfg, stopCh: make(chan struct{})}
	for i := 0; i < cfg.Workers; i++ {
		w := &Worker{id: i}
		w.setState(WorkerDown)
		s.workers = append(s.workers, w)
	}
	return s
}

func (s *supervisor) start() {
	for _, w := range s.workers {
		s.wg.Add(1)
		go func(w *Worker) {
			defer s.wg.Done()
			s.runSlot(w)
		}(w)
	}
}

// runSlot is one worker slot's supervision loop: spawn → await ready →
// serve until exit → respawn with exponential backoff. It returns when
// the supervisor is stopping and the current process (if any) exited.
func (s *supervisor) runSlot(w *Worker) {
	const backoffBase = 200 * time.Millisecond
	const backoffCap = 5 * time.Second
	backoff := backoffBase
	for !s.stopping.Load() {
		w.setState(WorkerStarting)
		w.healthy.Store(false)
		proc, addr, err := s.cfg.Start(w.id)
		if err != nil {
			log.Printf("level=warn msg=worker_spawn_failed worker=%d err=%q backoff=%v", w.id, err, backoff)
			if !s.sleep(backoff) {
				return
			}
			backoff = min(backoff*2, backoffCap)
			continue
		}
		w.setProc(proc, addr)
		exitErr := make(chan error, 1)
		procDone := make(chan struct{})
		go func() { exitErr <- proc.Wait(); close(procDone) }()

		if !s.awaitReady(w, procDone) {
			// Not ready in time (or stopping): force the process down and
			// let the loop decide whether to respawn.
			_ = proc.Signal(os.Kill)
			<-procDone
			w.setState(WorkerDown)
			if s.stopping.Load() {
				return
			}
			log.Printf("level=warn msg=worker_not_ready worker=%d addr=%s backoff=%v", w.id, addr, backoff)
			if !s.sleep(backoff) {
				return
			}
			backoff = min(backoff*2, backoffCap)
			continue
		}
		backoff = backoffBase
		w.healthy.Store(true)
		w.setState(WorkerReady)
		log.Printf("level=info msg=worker_ready worker=%d addr=%s pid=%d", w.id, addr, proc.Pid())

		err = <-exitErr
		w.healthy.Store(false)
		w.setState(WorkerDown)
		if s.stopping.Load() {
			log.Printf("level=info msg=worker_drained worker=%d pid=%d", w.id, proc.Pid())
			return
		}
		w.restarts.Add(1)
		if s.respawns != nil {
			s.respawns.Inc()
		}
		log.Printf("level=warn msg=worker_exited worker=%d pid=%d err=%v action=respawn", w.id, proc.Pid(), err)
	}
}

// awaitReady polls the worker's readiness until it passes, the process
// exits, the timeout lapses, or the supervisor stops. On success the
// worker's model info (batching ceiling) is recorded for the adaptive
// batching controller.
func (s *supervisor) awaitReady(w *Worker, procDone <-chan struct{}) bool {
	_, _, client := w.snapshot()
	deadline := time.Now().Add(s.cfg.ReadyTimeout)
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		if ready, _ := client.healthz(); ready {
			if info, err := client.model(); err == nil {
				w.maxBatchCeil.Store(int64(info.MaxBatch))
				w.curMaxBatch.Store(int64(info.MaxBatch))
			}
			// A keep-everything retune reads back the worker's effective
			// max-batch, seeding the adaptive controller's starting point.
			if mb, err := client.retune(0); err == nil {
				w.curMaxBatch.Store(int64(mb))
			}
			return true
		}
		select {
		case <-procDone:
			return false
		case <-s.stopCh:
			return false
		case <-tick.C:
			if time.Now().After(deadline) {
				return false
			}
		}
	}
}

// sleep waits d or until the supervisor stops; false means stopping.
func (s *supervisor) sleep(d time.Duration) bool {
	select {
	case <-time.After(d):
		return true
	case <-s.stopCh:
		return false
	}
}

// shutdown drains the fleet: SIGTERM to every live worker (their
// /v1/healthz flips to draining and in-flight requests finish), wait up
// to DrainTimeout, then SIGKILL stragglers. Runs the per-worker waits
// concurrently; returns once every slot's supervision loop has exited.
func (s *supervisor) shutdown() {
	s.stopping.Store(true)
	close(s.stopCh)
	for _, w := range s.workers {
		proc, _, _ := w.snapshot()
		if proc != nil && w.State() != WorkerDown {
			w.setState(WorkerDraining)
			_ = proc.Signal(syscall.SIGTERM)
		}
	}
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(s.cfg.DrainTimeout):
		for _, w := range s.workers {
			if proc, _, _ := w.snapshot(); proc != nil && w.State() != WorkerDown {
				log.Printf("level=warn msg=worker_drain_timeout worker=%d pid=%d action=kill", w.id, proc.Pid())
				_ = proc.Signal(os.Kill)
			}
		}
		<-done
	}
}

func float64FromBits(b uint64) float64 { return math.Float64frombits(b) }
