package cluster

import (
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"drainnet/internal/serve"
	"drainnet/internal/telemetry"
)

// fakeWorker is an in-process stand-in for a drainnet-serve process: a
// real HTTP listener speaking the /v1 control surface, with a Process
// lifecycle the supervisor can signal and wait on.
type fakeWorker struct {
	id   int
	ln   net.Listener
	srv  *http.Server
	addr string

	draining atomic.Bool
	served   atomic.Int64
	queue    atomic.Int64
	maxBatch atomic.Int64

	exited chan struct{}
	once   sync.Once
}

func newFakeWorker(id int) (*fakeWorker, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	w := &fakeWorker{id: id, ln: ln, addr: ln.Addr().String(), exited: make(chan struct{})}
	w.maxBatch.Store(8)
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/healthz", func(rw http.ResponseWriter, r *http.Request) {
		if w.draining.Load() {
			rw.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		fmt.Fprint(rw, `{"status":"ready","accepting":true}`)
	})
	mux.HandleFunc("/v1/model", func(rw http.ResponseWriter, r *http.Request) {
		json.NewEncoder(rw).Encode(serve.ModelInfo{Name: "fake", MaxBatch: int(w.maxBatch.Load())})
	})
	mux.HandleFunc("/v1/metrics", func(rw http.ResponseWriter, r *http.Request) {
		items := []telemetry.MetricPoint{
			{Name: "drainnet_queue_depth", Type: "gauge", Value: float64(w.queue.Load())},
		}
		json.NewEncoder(rw).Encode(map[string]any{"items": items})
	})
	mux.HandleFunc("/v1/control/batching", func(rw http.ResponseWriter, r *http.Request) {
		var req serve.BatchingControl
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			rw.WriteHeader(http.StatusBadRequest)
			return
		}
		if req.MaxBatch > 0 {
			w.maxBatch.Store(int64(req.MaxBatch))
		}
		json.NewEncoder(rw).Encode(serve.BatchingControl{MaxBatch: int(w.maxBatch.Load())})
	})
	mux.HandleFunc("/v1/detect", func(rw http.ResponseWriter, r *http.Request) {
		w.served.Add(1)
		fmt.Fprintf(rw, `{"worker":%d}`, w.id)
	})
	mux.HandleFunc("/v1/sweep", func(rw http.ResponseWriter, r *http.Request) {
		w.served.Add(1)
		fmt.Fprintf(rw, `{"sweep_worker":%d}`, w.id)
	})
	w.srv = &http.Server{Handler: mux}
	go func() {
		_ = w.srv.Serve(ln)
		w.once.Do(func() { close(w.exited) })
	}()
	return w, nil
}

func (w *fakeWorker) Pid() int { return 10000 + w.id }

func (w *fakeWorker) Signal(sig os.Signal) error {
	switch sig {
	case syscall.SIGTERM:
		// Graceful drain: readiness flips, listener closes, "process" exits.
		w.draining.Store(true)
		go func() {
			time.Sleep(10 * time.Millisecond)
			w.kill()
		}()
	default:
		w.kill()
	}
	return nil
}

// kill abruptly closes the listener — in-flight exchanges fail at the
// transport level, exactly like a SIGKILLed process.
func (w *fakeWorker) kill() {
	_ = w.ln.Close()
	_ = w.srv.Close()
	w.once.Do(func() { close(w.exited) })
}

func (w *fakeWorker) Wait() error {
	<-w.exited
	return nil
}

// fakeFleet hands fakeWorkers to the supervisor and remembers every
// spawn so tests can kill specific incarnations.
type fakeFleet struct {
	mu     sync.Mutex
	spawns []*fakeWorker
}

func (f *fakeFleet) start(id int) (Process, string, error) {
	w, err := newFakeWorker(id)
	if err != nil {
		return nil, "", err
	}
	f.mu.Lock()
	f.spawns = append(f.spawns, w)
	f.mu.Unlock()
	return w, w.addr, nil
}

func (f *fakeFleet) spawnCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.spawns)
}

func (f *fakeFleet) spawnAt(i int) *fakeWorker {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.spawns[i]
}

// worker returns the latest spawn for a worker slot id (spawn order
// across slots is scheduler-dependent, so index ≠ id).
func (f *fakeFleet) worker(id int) *fakeWorker {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i := len(f.spawns) - 1; i >= 0; i-- {
		if f.spawns[i].id == id {
			return f.spawns[i]
		}
	}
	return nil
}

func testRouter(t *testing.T, cfg Config) (*Router, *fakeFleet) {
	t.Helper()
	fleet := &fakeFleet{}
	cfg.Start = fleet.start
	if cfg.ScrapeInterval == 0 {
		cfg.ScrapeInterval = 20 * time.Millisecond
	}
	if cfg.DrainTimeout == 0 {
		cfg.DrainTimeout = 5 * time.Second
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	waitFor(t, 5*time.Second, func() bool { return rt.ReadyWorkers() == rt.cfg.Workers })
	return rt, fleet
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

func TestRouterRoutesAcrossWorkers(t *testing.T) {
	rt, fleet := testRouter(t, Config{Workers: 2})
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	for i := 0; i < 20; i++ {
		resp, err := http.Post(ts.URL+"/v1/detect", "application/json", strings.NewReader(`{}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
		if resp.Header.Get("Drainnet-Worker") == "" {
			t.Fatal("missing Drainnet-Worker header")
		}
	}
	// Least-loaded with idle workers degenerates to spreading: both
	// workers must have served something across 20 requests.
	if fleet.worker(0).served.Load() == 0 || fleet.worker(1).served.Load() == 0 {
		t.Fatalf("load not spread: worker0=%d worker1=%d",
			fleet.worker(0).served.Load(), fleet.worker(1).served.Load())
	}
}

func TestRouterRetriesAcrossWorkerDeath(t *testing.T) {
	rt, fleet := testRouter(t, Config{Workers: 2})
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	// Kill worker 0 abruptly. The very next requests may dial a dead
	// listener — the router must retry them on the survivor, losing none.
	fleet.worker(0).kill()
	for i := 0; i < 10; i++ {
		resp, err := http.Post(ts.URL+"/v1/detect", "application/json", strings.NewReader(`{}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d after kill: status %d", i, resp.StatusCode)
		}
	}
	// The supervisor must respawn slot 0 (a third spawn overall).
	waitFor(t, 5*time.Second, func() bool { return fleet.spawnCount() >= 3 && rt.ReadyWorkers() == 2 })
}

func TestRouterShedsBulkWithRetryAfter(t *testing.T) {
	rt, _ := testRouter(t, Config{
		Workers:   1,
		Admission: AdmissionPolicy{MaxInteractive: 4, MaxBulk: 1},
	})
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	// Hold the only bulk slot by acquiring it directly, then watch a bulk
	// request shed with the full 429 contract.
	release, ok := rt.adm.acquire(ClassBulk)
	if !ok {
		t.Fatal("could not take the bulk slot")
	}
	defer release()

	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/detect", strings.NewReader(`{}`))
	req.Header.Set(ClassHeader, "bulk")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	var env struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != "queue_full" {
		t.Fatalf("error code = %q, want queue_full", env.Error.Code)
	}

	// Interactive traffic still flows while bulk is shed.
	ir, err := http.Post(ts.URL+"/v1/detect", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	ir.Body.Close()
	if ir.StatusCode != http.StatusOK {
		t.Fatalf("interactive status = %d during bulk shed, want 200", ir.StatusCode)
	}
}

func TestRouterSweepPinsToLowestWorker(t *testing.T) {
	rt, fleet := testRouter(t, Config{Workers: 2})
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	for i := 0; i < 6; i++ {
		resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(`{}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	_ = rt
	if got := fleet.worker(1).served.Load(); got != 0 {
		t.Fatalf("sweep traffic reached worker 1 (%d requests); must pin to worker 0", got)
	}
	if got := fleet.worker(0).served.Load(); got != 6 {
		t.Fatalf("worker 0 served %d sweep requests, want 6", got)
	}
}

func TestRouterHealthAndStatus(t *testing.T) {
	rt, _ := testRouter(t, Config{Workers: 2})
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz with ready workers = %d, want 200", resp.StatusCode)
	}

	var st ClusterStatus
	cr, err := http.Get(ts.URL + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer cr.Body.Close()
	if err := json.NewDecoder(cr.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Ready != 2 || len(st.Workers) != 2 || st.Draining {
		t.Fatalf("status = ready:%d workers:%d draining:%t, want 2/2/false", st.Ready, len(st.Workers), st.Draining)
	}

	// Draining flips readiness to 503 and refuses proxying.
	rt.BeginDrain()
	hr, _ := http.Get(ts.URL + "/v1/healthz")
	hr.Body.Close()
	if hr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining = %d, want 503", hr.StatusCode)
	}
	dr, _ := http.Post(ts.URL+"/v1/detect", "application/json", strings.NewReader(`{}`))
	dr.Body.Close()
	if dr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("proxy while draining = %d, want 503", dr.StatusCode)
	}
}

func TestRouterCloseDrainsFleet(t *testing.T) {
	fleet := &fakeFleet{}
	rt, err := New(Config{Workers: 2, Start: fleet.start, ScrapeInterval: 20 * time.Millisecond, DrainTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return rt.ReadyWorkers() == 2 })

	done := make(chan struct{})
	go func() { rt.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not finish")
	}
	for i := 0; i < 2; i++ {
		if st := rt.sup.workers[i].State(); st != WorkerDown {
			t.Fatalf("worker %d state after Close = %v, want down", i, st)
		}
	}
	// Every spawned fake must have observed its drain signal.
	for i := 0; i < fleet.spawnCount(); i++ {
		select {
		case <-fleet.spawnAt(i).exited:
		default:
			t.Fatalf("spawn %d still running after Close", i)
		}
	}
}

func TestRouterBodyLimit(t *testing.T) {
	rt, _ := testRouter(t, Config{Workers: 1, MaxBodyBytes: 64})
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/detect", "application/json",
		strings.NewReader(strings.Repeat("x", 100)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body status = %d, want 413", resp.StatusCode)
	}
}

func TestAutoBatchRetunesFromScrape(t *testing.T) {
	rt, fleet := testRouter(t, Config{
		Workers: 1,
		AutoBatch: AutoBatchConfig{
			Enabled:   true,
			Interval:  20 * time.Millisecond,
			TargetP95: 100 * time.Millisecond,
		},
	})
	w := fleet.worker(0)
	// Simulate a worker running hot: deep queue (the fake's own gauge, so
	// the scrape keeps reporting it) and a p95 over SLO (set directly —
	// the fake exports no latency histogram, so the scrape leaves it).
	w.queue.Store(50)
	rt.sup.workers[0].latencyP95.Store(math.Float64bits(0.5))

	// The controller must push the fake worker's knobs down from 8.
	waitFor(t, 5*time.Second, func() bool { return w.maxBatch.Load() < 8 })
}
