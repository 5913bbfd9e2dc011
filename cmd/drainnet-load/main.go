// drainnet-load is the cluster-mode load harness: closed-loop and
// open-loop generators plus two scripted protocols that prove the
// router's contract end to end, against real drainnet-router and
// drainnet-serve processes.
//
//	drainnet-load -smoke  -router-bin ./drainnet-router -serve-bin ./drainnet-serve
//	drainnet-load -bench  -router-bin ./drainnet-router -serve-bin ./drainnet-serve -out BENCH_cluster.json
//	drainnet-load -target http://127.0.0.1:9090 -conc 8 -duration 10s
//
// -smoke (seconds, CI-sized): start a router over 2 workers, run
// closed-loop interactive load, SIGKILL one worker mid-load, and assert
// zero interactive request loss; then SIGTERM the router and assert it
// exits 0 with no orphan worker processes.
//
// -bench (the full protocol, writes -out):
//
//  1. baseline — closed-loop interactive load on an idle cluster →
//     uncontended p50/p99 and the capacity estimate (served rps).
//  2. overload — open-loop bulk flood at ≥10× measured capacity with a
//     steady interactive trickle → assert interactive p99 ≤ 2× the
//     uncontended p99 and that bulk sheds with 429 + Retry-After.
//  3. kill — SIGKILL a worker under closed-loop interactive load →
//     assert zero failed interactive requests and that the supervisor
//     respawns the slot.
//  4. drain — SIGTERM the router → assert exit code 0 and that every
//     worker pid is gone (no orphans).
//
// Workers start from a minted untrained checkpoint (detection quality
// is irrelevant to routing behaviour), so the whole bench is seconds,
// not minutes. Any assertion failure makes the harness exit non-zero,
// so `make smoke-cluster` / `make bench-cluster` fail loudly in CI.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"drainnet/internal/cluster"
	"drainnet/internal/experiments"
	"drainnet/internal/model"
	"drainnet/internal/provenance"
	"drainnet/internal/train"
)

func main() {
	smoke := flag.Bool("smoke", false, "run the CI-sized kill/drain smoke protocol")
	bench := flag.Bool("bench", false, "run the full baseline/overload/kill/drain protocol and write -out")
	out := flag.String("out", "BENCH_cluster.json", "bench result file (with -bench)")
	routerBin := flag.String("router-bin", "drainnet-router", "path to the drainnet-router binary")
	serveBin := flag.String("serve-bin", "drainnet-serve", "path to the drainnet-serve binary")
	workers := flag.Int("workers", 0, "worker count (0 = 2 for -smoke, 3 for -bench)")
	target := flag.String("target", "", "load an existing router at this base URL instead of spawning a cluster")
	conc := flag.Int("conc", 4, "closed-loop concurrency (with -target)")
	duration := flag.Duration("duration", 10*time.Second, "load duration (with -target)")
	flag.Parse()

	switch {
	case *target != "":
		res := closedLoop(*target, false, *conc, *duration, nil)
		fmt.Printf("requests=%d ok=%d errors=%d rps=%.1f p50=%.2fms p99=%.2fms\n",
			res.Requests, res.OK, res.Requests-res.OK, res.RPS, res.P50ms, res.P99ms)
	case *smoke:
		if err := runSmoke(*routerBin, *serveBin, pick(*workers, 2)); err != nil {
			log.Fatalf("smoke FAILED: %v", err)
		}
		fmt.Println("smoke-cluster PASS")
	case *bench:
		if err := runBench(*routerBin, *serveBin, pick(*workers, 3), *out); err != nil {
			log.Fatalf("bench FAILED: %v", err)
		}
	default:
		log.Fatal("one of -smoke, -bench or -target is required")
	}
}

func pick(v, def int) int {
	if v > 0 {
		return v
	}
	return def
}

// ---------------------------------------------------------------------------
// cluster under test

// testCluster is a spawned drainnet-router process plus what the
// protocols need to poke it: its base URL and its process handle.
type testCluster struct {
	cmd  *exec.Cmd
	base string
	hc   *http.Client
}

// mintCheckpoint writes an untrained checkpoint matching the exact
// config drainnet-serve builds (TinyData geometry), so workers skip
// training and come ready in milliseconds.
func mintCheckpoint(dir string) (string, error) {
	dc := experiments.TinyData()
	cfg := model.SPPNet2().Scaled(dc.WidthScale).WithInput(4, dc.ClipSize)
	net, err := cfg.Build(rand.New(rand.NewSource(dc.NetSeed)))
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "load.ckpt")
	return path, train.SaveFile(path, net)
}

func startCluster(routerBin, serveBin string, workers int, dir string) (*testCluster, error) {
	ckpt, err := mintCheckpoint(dir)
	if err != nil {
		return nil, fmt.Errorf("mint checkpoint: %w", err)
	}
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(routerBin,
		"-addr", addr,
		"-workers", fmt.Sprint(workers),
		"-serve-bin", serveBin,
		"-worker-args", "-ckpt "+ckpt+" -replicas 2 -max-batch 8 -queue 128",
		"-scrape-interval", "100ms",
		"-ready-timeout", "60s",
		"-drain-timeout", "20s",
	)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	tc := &testCluster{cmd: cmd, base: "http://" + addr, hc: &http.Client{Timeout: 30 * time.Second}}
	if err := tc.awaitReady(workers, 90*time.Second); err != nil {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		return nil, err
	}
	return tc, nil
}

func (tc *testCluster) awaitReady(workers int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if st, err := tc.status(); err == nil && st.Ready >= workers {
			return nil
		}
		time.Sleep(200 * time.Millisecond)
	}
	return fmt.Errorf("cluster not ready (%d workers) within %v", workers, timeout)
}

func (tc *testCluster) status() (cluster.ClusterStatus, error) {
	var st cluster.ClusterStatus
	resp, err := tc.hc.Get(tc.base + "/v1/cluster")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// workerPids returns the live worker pids, keyed by slot id.
func (tc *testCluster) workerPids() (map[int]int, error) {
	st, err := tc.status()
	if err != nil {
		return nil, err
	}
	pids := make(map[int]int)
	for _, w := range st.Workers {
		if w.State == "ready" && w.Pid > 0 {
			pids[w.ID] = w.Pid
		}
	}
	return pids, nil
}

// drain SIGTERMs the router and reports its exit error (nil = exit 0)
// plus how many of the given worker pids survived (orphans).
func (tc *testCluster) drain(pids map[int]int) (exitErr error, orphans int) {
	_ = tc.cmd.Process.Signal(syscall.SIGTERM)
	exitErr = tc.cmd.Wait()
	// A just-killed process can linger a beat; give the fleet a moment.
	time.Sleep(300 * time.Millisecond)
	for _, pid := range pids {
		if processAlive(pid) {
			orphans++
		}
	}
	return exitErr, orphans
}

func processAlive(pid int) bool {
	// Signal 0 probes existence; ESRCH means gone. A zombie still
	// "exists" but the router reaps its children before exiting, so a
	// positive here is a real orphan.
	return syscall.Kill(pid, 0) == nil
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := l.Addr().(*net.TCPAddr).Port
	return port, l.Close()
}

// ---------------------------------------------------------------------------
// load generators

var detectBody = func() []byte {
	dc := experiments.TinyData()
	sz := dc.ClipSize
	px := make([]float32, 4*sz*sz)
	rng := rand.New(rand.NewSource(7))
	for i := range px {
		px[i] = rng.Float32()
	}
	b, _ := json.Marshal(map[string]any{"bands": 4, "size": sz, "pixels": px})
	return b
}()

// loadResult aggregates one generator run.
type loadResult struct {
	Requests int     `json:"requests"`
	OK       int     `json:"ok"`
	Shed     int     `json:"shed_429"`
	Errors   int     `json:"errors"`
	RPS      float64 `json:"rps"`
	P50ms    float64 `json:"p50_ms"`
	P99ms    float64 `json:"p99_ms"`
	// RetryAfterMissing counts 429 responses lacking a Retry-After
	// header (the contract says every shed response carries one).
	RetryAfterMissing int `json:"retry_after_missing"`
}

type collector struct {
	mu        sync.Mutex
	lat       []float64
	ok        int64
	shed      int64
	errs      int64
	noRetryAt int64
}

func (c *collector) hit(base string, bulk bool, hc *http.Client) {
	req, _ := http.NewRequest(http.MethodPost, base+"/v1/detect", strings.NewReader(string(detectBody)))
	req.Header.Set("Content-Type", "application/json")
	if bulk {
		req.Header.Set(cluster.ClassHeader, "bulk")
	}
	start := time.Now()
	resp, err := hc.Do(req)
	if err != nil {
		atomic.AddInt64(&c.errs, 1)
		return
	}
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	switch {
	case resp.StatusCode == http.StatusOK:
		atomic.AddInt64(&c.ok, 1)
		sec := time.Since(start).Seconds()
		c.mu.Lock()
		c.lat = append(c.lat, sec*1e3)
		c.mu.Unlock()
	case resp.StatusCode == http.StatusTooManyRequests:
		atomic.AddInt64(&c.shed, 1)
		if resp.Header.Get("Retry-After") == "" {
			atomic.AddInt64(&c.noRetryAt, 1)
		}
	default:
		atomic.AddInt64(&c.errs, 1)
	}
}

func (c *collector) result(elapsed time.Duration) loadResult {
	c.mu.Lock()
	defer c.mu.Unlock()
	sort.Float64s(c.lat)
	res := loadResult{
		OK:                int(c.ok),
		Shed:              int(c.shed),
		Errors:            int(c.errs),
		RetryAfterMissing: int(c.noRetryAt),
	}
	res.Requests = res.OK + res.Shed + res.Errors
	if elapsed > 0 {
		res.RPS = float64(res.OK) / elapsed.Seconds()
	}
	res.P50ms = percentile(c.lat, 0.50)
	res.P99ms = percentile(c.lat, 0.99)
	return res
}

func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx]
}

// closedLoop runs conc workers each issuing requests back to back for
// d. midLoad, if non-nil, fires once roughly a third of the way in —
// the kill phases hook it to SIGKILL a worker while requests are live.
func closedLoop(base string, bulk bool, conc int, d time.Duration, midLoad func()) loadResult {
	c := &collector{}
	hc := &http.Client{Timeout: 30 * time.Second}
	stop := time.Now().Add(d)
	var wg sync.WaitGroup
	if midLoad != nil {
		time.AfterFunc(d/3, midLoad)
	}
	start := time.Now()
	for i := 0; i < conc; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stop) {
				c.hit(base, bulk, hc)
			}
		}()
	}
	wg.Wait()
	return c.result(time.Since(start))
}

// openLoop fires requests at a fixed rate regardless of completions for
// d — the overload generator: arrivals don't slow down when the server
// does, which is exactly what makes unshed overload collapse queues.
func openLoop(base string, bulk bool, rps float64, d time.Duration) loadResult {
	c := &collector{}
	hc := &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 512}}
	interval := time.Duration(float64(time.Second) / rps)
	if interval <= 0 {
		interval = time.Microsecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	stopAt := time.Now().Add(d)
	var wg sync.WaitGroup
	start := time.Now()
	for now := range tick.C {
		if now.After(stopAt) {
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.hit(base, bulk, hc)
		}()
	}
	wg.Wait()
	return c.result(time.Since(start))
}

// ---------------------------------------------------------------------------
// protocols

func runSmoke(routerBin, serveBin string, workers int) error {
	dir, err := os.MkdirTemp("", "drainnet-smoke-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	tc, err := startCluster(routerBin, serveBin, workers, dir)
	if err != nil {
		return err
	}
	pids, err := tc.workerPids()
	if err != nil || len(pids) == 0 {
		return fmt.Errorf("no worker pids: %v", err)
	}
	victim := pids[workers-1]

	res := closedLoop(tc.base, false, 4, 6*time.Second, func() {
		fmt.Printf("level=info msg=smoke_kill pid=%d\n", victim)
		_ = syscall.Kill(victim, syscall.SIGKILL)
	})
	fmt.Printf("level=info msg=smoke_load requests=%d ok=%d shed=%d errors=%d p99_ms=%.2f\n",
		res.Requests, res.OK, res.Shed, res.Errors, res.P99ms)
	if res.Errors > 0 {
		return fmt.Errorf("%d interactive requests lost across the worker kill (want 0)", res.Errors)
	}
	if res.Requests == 0 {
		return fmt.Errorf("no load generated")
	}
	// The killed slot must respawn before we call the supervisor healthy.
	if err := tc.awaitReady(workers, 30*time.Second); err != nil {
		return fmt.Errorf("killed worker did not respawn: %w", err)
	}
	pids, _ = tc.workerPids()
	exitErr, orphans := tc.drain(pids)
	if exitErr != nil {
		return fmt.Errorf("router exited non-zero on drain: %v", exitErr)
	}
	if orphans > 0 {
		return fmt.Errorf("%d orphan worker processes after drain (want 0)", orphans)
	}
	return nil
}

// BenchReport is the BENCH_cluster.json shape.
type BenchReport struct {
	GeneratedAt string `json:"generated_at"`
	Workers     int    `json:"workers"`

	Baseline loadResult `json:"baseline"`

	Overload struct {
		CapacityRPS float64    `json:"capacity_rps"`
		BulkRPS     float64    `json:"bulk_offered_rps"`
		Interactive loadResult `json:"interactive"`
		Bulk        loadResult `json:"bulk"`
	} `json:"overload"`

	Kill struct {
		VictimPid int        `json:"victim_pid"`
		Load      loadResult `json:"load"`
		Respawned bool       `json:"respawned"`
	} `json:"kill"`

	Drain struct {
		ExitZero bool    `json:"exit_zero"`
		Orphans  int     `json:"orphans"`
		Ms       float64 `json:"ms"`
	} `json:"drain"`

	Pass       bool     `json:"pass"`
	Violations []string `json:"violations"`

	Provenance *provenance.Stamp `json:"provenance,omitempty"`
}

func runBench(routerBin, serveBin string, workers int, out string) error {
	dir, err := os.MkdirTemp("", "drainnet-bench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	tc, err := startCluster(routerBin, serveBin, workers, dir)
	if err != nil {
		return err
	}
	rep := BenchReport{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Workers:     workers,
		Provenance:  provenance.Collect(),
	}

	// Phase 1: uncontended closed-loop baseline → p99 SLO anchor and the
	// capacity estimate the overload phase multiplies.
	fmt.Println("level=info msg=bench_phase phase=baseline")
	rep.Baseline = closedLoop(tc.base, false, 2*workers, 8*time.Second, nil)
	fmt.Printf("level=info msg=baseline rps=%.1f p50_ms=%.2f p99_ms=%.2f\n",
		rep.Baseline.RPS, rep.Baseline.P50ms, rep.Baseline.P99ms)

	// Phase 2: bulk flood at ≥10× capacity, interactive trickle riding
	// along. Admission must shed bulk (429 + Retry-After) while the
	// interactive p99 stays within 2× of uncontended.
	capacity := rep.Baseline.RPS
	if capacity <= 0 {
		capacity = 10
	}
	bulkRPS := 10 * capacity
	interRPS := capacity / 5
	if interRPS < 2 {
		interRPS = 2
	}
	rep.Overload.CapacityRPS = capacity
	rep.Overload.BulkRPS = bulkRPS
	fmt.Printf("level=info msg=bench_phase phase=overload capacity_rps=%.1f bulk_rps=%.1f interactive_rps=%.1f\n",
		capacity, bulkRPS, interRPS)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); rep.Overload.Bulk = openLoop(tc.base, true, bulkRPS, 10*time.Second) }()
	go func() { defer wg.Done(); rep.Overload.Interactive = openLoop(tc.base, false, interRPS, 10*time.Second) }()
	wg.Wait()
	fmt.Printf("level=info msg=overload interactive_p99_ms=%.2f interactive_ok=%d bulk_ok=%d bulk_shed=%d\n",
		rep.Overload.Interactive.P99ms, rep.Overload.Interactive.OK, rep.Overload.Bulk.OK, rep.Overload.Bulk.Shed)

	// Phase 3: SIGKILL a worker under interactive load; retries must hide
	// it and the supervisor must respawn the slot.
	pids, err := tc.workerPids()
	if err != nil || len(pids) == 0 {
		return fmt.Errorf("no worker pids before kill phase: %v", err)
	}
	victim := pids[workers-1]
	rep.Kill.VictimPid = victim
	fmt.Printf("level=info msg=bench_phase phase=kill victim_pid=%d\n", victim)
	rep.Kill.Load = closedLoop(tc.base, false, 4, 8*time.Second, func() {
		_ = syscall.Kill(victim, syscall.SIGKILL)
	})
	rep.Kill.Respawned = tc.awaitReady(workers, 30*time.Second) == nil

	// Phase 4: SIGTERM drain — exit 0, no orphans.
	fmt.Println("level=info msg=bench_phase phase=drain")
	pids, _ = tc.workerPids()
	drainStart := time.Now()
	exitErr, orphans := tc.drain(pids)
	rep.Drain.ExitZero = exitErr == nil
	rep.Drain.Orphans = orphans
	rep.Drain.Ms = float64(time.Since(drainStart)) / float64(time.Millisecond)

	// Verdict.
	v := &rep.Violations
	if rep.Overload.Interactive.P99ms > 2*rep.Baseline.P99ms {
		*v = append(*v, fmt.Sprintf("interactive p99 under overload %.2fms > 2× uncontended %.2fms",
			rep.Overload.Interactive.P99ms, rep.Baseline.P99ms))
	}
	if rep.Overload.Bulk.Shed == 0 {
		*v = append(*v, "bulk traffic was never shed at 10× capacity")
	}
	if rep.Overload.Bulk.RetryAfterMissing > 0 {
		*v = append(*v, fmt.Sprintf("%d shed responses lacked Retry-After", rep.Overload.Bulk.RetryAfterMissing))
	}
	if rep.Kill.Load.Errors > 0 {
		*v = append(*v, fmt.Sprintf("%d interactive requests lost across the worker kill", rep.Kill.Load.Errors))
	}
	if !rep.Kill.Respawned {
		*v = append(*v, "killed worker was not respawned")
	}
	if !rep.Drain.ExitZero {
		*v = append(*v, fmt.Sprintf("router exit non-zero on drain: %v", exitErr))
	}
	if rep.Drain.Orphans > 0 {
		*v = append(*v, fmt.Sprintf("%d orphan workers after drain", rep.Drain.Orphans))
	}
	rep.Pass = len(rep.Violations) == 0

	data, _ := json.MarshalIndent(rep, "", "  ")
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("level=info msg=bench_done pass=%t out=%s violations=%d\n", rep.Pass, out, len(rep.Violations))
	if !rep.Pass {
		return fmt.Errorf("bench violations: %s", strings.Join(rep.Violations, "; "))
	}
	return nil
}
