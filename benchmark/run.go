package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"drainnet/internal/nn"
	"drainnet/internal/provenance"
)

// A run executes the server from nothing at least minColdStarts times,
// and goes on (up to maxColdStarts) until it has sampled setUpBudget of
// set-up time: a 12 ms start is timed 60 times, a 0.3 s start about 10
// times. setup_s is the median: one start of a 12 ms server is mostly
// the host's scheduling.
const (
	minColdStarts = 5
	maxColdStarts = 60
	setUpBudget   = 3 * time.Second
)

// warmUp is the untimed lead-in of a full-length run.
const warmUp = 3 * time.Second

// Poll intervals for a sweep job's state. The measured run polls
// rarely enough to cost the server nothing; the traced run polls fast
// enough to see the short pipeline stages.
const (
	pollMeasured = 10 * time.Millisecond
	pollTraced   = 5 * time.Millisecond
)

// metricSpec is one metric of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func (m metricSpec) lowerIsBetter() bool { return m.Better == "lower" }

// benchSpec is the part of BENCHMARK.json, the contract this harness is
// run under, that the harness reads.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadBenchSpec(root string) (*benchSpec, error) {
	path := filepath.Join(root, "BENCHMARK.json")
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchSpec
	if err := json.Unmarshal(buf, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// env is what every run of the harness shares.
type env struct {
	benchDir string // root/benchmark
	outDir   string // root/.bench_build: binaries, logs, traces
	spec     *benchSpec
	pins     *pins
	net      *nn.Sequential
	pool     *clipPool
	serveBin string
	// maxColdStarts caps how often measure executes the server (the
	// constant, except in the smoke test).
	maxColdStarts int

	mu      sync.Mutex
	servers []*server // every child started, for stopAll
}

func newEnv(root string) (*env, error) {
	e := &env{benchDir: filepath.Join(root, "benchmark"), outDir: filepath.Join(root, ".bench_build"), maxColdStarts: maxColdStarts}
	var err error
	if e.spec, err = loadBenchSpec(root); err != nil {
		return nil, err
	}
	if e.pins, err = loadPins(e.benchDir); err != nil {
		return nil, err
	}
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		return nil, fmt.Errorf("GOMAXPROCS=%d exceeds num_cpu=%d: the run would measure oversubscription",
			runtime.GOMAXPROCS(0), runtime.NumCPU())
	}
	if err := os.MkdirAll(filepath.Join(e.outDir, "logs"), 0o755); err != nil {
		return nil, err
	}
	if e.net, err = loadBenchNet(e.benchDir, e.pins); err != nil {
		return nil, err
	}
	if e.serveBin, err = buildServer(root, e.outDir); err != nil {
		return nil, err
	}
	return e, nil
}

// clipPool builds the held-out pool on first use; sweep-only runs never
// pay for it.
func (e *env) clipPool() (*clipPool, error) {
	if e.pool == nil {
		p, err := buildPool(e.net)
		if err != nil {
			return nil, err
		}
		e.pool = p
	}
	return e.pool, nil
}

// start executes the server for w. The log is kept when anything later
// fails and removed by the caller otherwise.
func (e *env) start(w workload) (*server, error) {
	e.mu.Lock()
	n := len(e.servers)
	e.mu.Unlock()
	logPath := filepath.Join(e.outDir, "logs", fmt.Sprintf("%s-%d-%d.log", w.name, os.Getpid(), n))
	args := append([]string{"-ckpt", ckptPath(e.benchDir)}, w.args...)
	srv, err := startServer(e.serveBin, args, logPath)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	e.servers = append(e.servers, srv)
	e.mu.Unlock()
	return srv, nil
}

// stopAll ends every child still running; main calls it on every way
// out, including a signal.
func (e *env) stopAll() {
	e.mu.Lock()
	servers := append([]*server(nil), e.servers...)
	e.mu.Unlock()
	for _, s := range servers {
		s.stop()
	}
}

// stamp says where and on what a result was measured.
type stamp struct {
	*provenance.Stamp
	GOMAXPROCS int `json:"gomaxprocs"`
}

func newStamp() stamp {
	return stamp{Stamp: provenance.Collect(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run of one workload reports. The first four
// fields are the line the driver reads; the rest explain it.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`

	Workload    string         `json:"workload,omitempty"`
	Seed        int64          `json:"seed,omitempty"`
	Samples     int            `json:"samples,omitempty"` // latencies behind latency_p50_ms
	ErrorShare  float64        `json:"error_share"`
	Mistakes    map[string]int `json:"mistakes,omitempty"`
	FirstError  string         `json:"first_error,omitempty"`
	Diagnostics *diagnostics   `json:"diagnostics,omitempty"`
}

// diagnostics explain a noisy run; nothing is filtered on them.
type diagnostics struct {
	SetupS         []float64 `json:"setup_s"`
	WallS          float64   `json:"wall_s"`
	ClipsPerSecond []int     `json:"clips_per_second"`
	HostRefMs      []float64 `json:"host_ref_ms"`
}

// driverLine is the result cut down to the four keys the driver reads.
func (r *result) driverLine() string {
	buf, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	return string(buf)
}

// drive runs one phase of w against srv for d. With cover set, a sweep
// phase lasts until every spec of the workload has been swept, even
// past d.
func (e *env) drive(srv *server, w workload, seed int64, d, poll time.Duration, cover bool) (*phase, error) {
	client := newClient(requestTimeout)
	defer client.CloseIdleConnections()
	if w.clipsPerRequest > 0 {
		pool, err := e.clipPool()
		if err != nil {
			return nil, err
		}
		return driveDetect(client, srv.base, newDetectTraffic(pool, w.clipsPerRequest, seed), d), nil
	}
	pinned := e.pins.Sweeps[w.name]
	if len(pinned) != len(w.sweeps) {
		return nil, fmt.Errorf("pins.json pins %d specs of %s, the workload has %d: regenerate with -mkckpt",
			len(pinned), w.name, len(w.sweeps))
	}
	first := int(seed % int64(len(w.sweeps)))
	if first < 0 {
		first += len(w.sweeps)
	}
	minJobs := 0
	if cover {
		minJobs = len(w.sweeps)
	}
	return driveSweeps(client, srv.base, w, pinned, first, minJobs, d, poll), nil
}

// measure is the untraced run of one workload: cold starts, warm-up,
// then the measured phase the end-to-end metrics come from.
func (e *env) measure(w workload, seed int64, d time.Duration) (*result, error) {
	if w.clipsPerRequest > 0 {
		// Build the pool before the first start so that set-up time is
		// the server's alone.
		if _, err := e.clipPool(); err != nil {
			return nil, err
		}
	}
	var setups []float64
	var sampled time.Duration
	var srv *server
	for {
		s, err := e.start(w)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s.setup.Seconds())
		sampled += s.setup
		if n := len(setups); n >= e.maxColdStarts || (n >= minColdStarts && sampled >= setUpBudget) {
			srv = s // the last one started serves the run
			break
		}
		s.stop()
		os.Remove(s.logPath)
	}
	defer srv.stop()

	warm := warmUp
	if warm > d/2 {
		warm = d / 2
	}
	if _, err := e.drive(srv, w, seed+1, warm, pollMeasured, false); err != nil {
		return nil, err
	}
	cpu0, err := srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	p, err := e.drive(srv, w, seed, d, pollMeasured, true)
	if err != nil {
		return nil, err
	}
	cpu1, err := srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	rss, err := srv.peakRSSMB()
	if err != nil {
		return nil, err
	}

	r := &result{
		Workload: w.name, Seed: seed,
		Attempted: p.attempted, Failed: p.failed, Samples: len(p.latencyMs),
		ErrorShare: float64(p.failed) / float64(max(p.attempted, 1)),
		Mistakes:   p.mistake, FirstError: p.firstError,
		Metrics: map[string]value{},
		Diagnostics: &diagnostics{SetupS: setups, WallS: p.wall.Seconds(),
			ClipsPerSecond: p.clipsPerSecond, HostRefMs: p.hostRefMs},
	}
	got := map[string]float64{
		"setup_s":         median(setups),
		"clips_per_s":     float64(p.clips) / p.wall.Seconds(),
		"latency_p50_ms":  median(p.latencyMs),
		"cpu_ms_per_clip": (cpu1 - cpu0) * 1e3 / float64(max(p.clips, 1)),
		"peak_rss_mb":     rss,
		"served_ap":       p.ap,
	}
	for _, m := range e.spec.EndToEnd {
		v, ok := got[m.Name]
		if !ok {
			return nil, fmt.Errorf("BENCHMARK.json lists end-to-end metric %q, which the harness does not measure", m.Name)
		}
		r.Metrics[m.Name] = value{v, m.Unit}
	}
	// An answer counts only if it is right, and a score only if the
	// model behind it detects something.
	r.Correct = p.attempted > 0 && p.failed == 0 && p.clips > 0 && p.ap > 0
	if r.Correct {
		os.Remove(srv.logPath)
	} else if r.FirstError == "" {
		r.FirstError = fmt.Sprintf("clips=%d served_ap=%v", p.clips, p.ap)
	}
	return r, nil
}
