package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"drainnet/internal/metrics"
	"drainnet/internal/nn"
	"drainnet/internal/tensor"
	"drainnet/internal/terrain"
)

func TestPercentilePicker(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i + 1)
	}
	if got := percentile(v, 50); got != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", got)
	}
	if got := percentile(v, 90); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of nothing = %v, want 0", got)
	}
	// The "at least ten samples beyond it" rule.
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{100, 90, true},  // rank 90, ten beyond
		{99, 90, false},  // rank 90, nine beyond
		{1000, 99, true}, // rank 990, ten beyond
		{999, 99, false},
		{20, 50, true},
		{19, 50, false},
		{5, 50, false},
	} {
		if got := supported(c.n, c.p); got != c.want {
			t.Errorf("supported(%d, p%v) = %t, want %t", c.n, c.p, got, c.want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q3 = quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles of two = %v, %v, want 0.75, 2.25", q1, q3)
	}
}

func TestSelfTimeFromSpanTree(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Parent: 0, Name: "serve.handler", Start: 0, End: 10 * ms},
		{ID: 2, Parent: 1, Name: "batcher.Submit", Start: 20 * ms, End: 27 * ms},
		{ID: 3, Parent: 2, Name: "model.InferDetect", Start: 30 * ms, End: 34 * ms},
		{ID: 4, Parent: 3, Name: "nn.conv0", Start: 40 * ms, End: 41 * ms},
		{ID: 5, Parent: 3, Name: "nn.conv1", Start: 50 * ms, End: 52 * ms},
		{ID: 6, Parent: 0, Name: "serve.handler", Start: 60 * ms, End: 61 * ms},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 3 * ms, 2: 3 * ms, 3: 1 * ms, 4: 1 * ms, 5: 2 * ms, 6: 1 * ms}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}
	byLayer := layerSelf(spans)
	if byLayer["serve"] != 4000 || byLayer["nn"] != 3000 || byLayer["model"] != 1000 {
		t.Errorf("self time by layer = %v", byLayer)
	}
	rec := newRecorder()
	root := rec.do(0, 7, "a.x", func() {})
	kid := rec.do(root, 7, "b.y", func() {})
	if root != 1 || kid != 2 || rec.spans[1].Parent != 1 || rec.spans[1].Req != 7 || rec.spans[1].End < rec.spans[1].Start {
		t.Errorf("recorder spans = %+v", rec.spans)
	}
	path := t.TempDir() + "/trace.json"
	if err := writeChromeTrace(path, spans); err != nil {
		t.Fatal(err)
	}
	buf, _ := os.ReadFile(path)
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf, &doc); err != nil || len(doc.TraceEvents) != len(spans) {
		t.Fatalf("trace file: %v, %d events", err, len(doc.TraceEvents))
	}
	// Children are drawn inside their parent.
	if ev := doc.TraceEvents[1]; ev.Ph != "X" || ev.Cat != "batcher" || ev.Ts != 0 || ev.Dur != 7000 {
		t.Errorf("child event = %+v", ev)
	}
}

// TestScrapeCapturedMetrics reads a /v1/metrics?format=json body captured
// from drainnet-serve after seven /v1/detect requests and one batch of
// three.
func TestScrapeCapturedMetrics(t *testing.T) {
	body, err := os.ReadFile("testdata/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	s, err := parseScrape(body)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.value("drainnet_requests_served_total"); got != 10 {
		t.Errorf("served = %v, want 10", got)
	}
	if got := s.value("drainnet_batches_total"); got != 8 {
		t.Errorf("batches = %v, want 8", got)
	}
	if got := s.hist("drainnet_http_request_duration_seconds", "route", "/v1/detect").Count; got != 7 {
		t.Errorf("/v1/detect requests = %v, want 7", got)
	}
	if got := s.hist("drainnet_http_request_duration_seconds", "route", "/v1/detect/batch").Count; got != 1 {
		t.Errorf("/v1/detect/batch requests = %v, want 1", got)
	}
	if got := s.hist("drainnet_http_request_duration_seconds").Count; got != 8 {
		t.Errorf("requests over all routes = %v, want 8", got)
	}
	wait := gainedHist(nil, s, "drainnet_queue_wait_seconds")
	if ms := meanMs(wait); wait.Count != 10 || ms < 2.3077 || ms > 2.3078 {
		t.Errorf("queue wait mean = %v ms over %v, want 2.307735 over 10", ms, wait.Count)
	}
	// 7 of 10 requests took 2.5–5 ms, the other 3 took 5–10 ms.
	lat := gainedHist(nil, s, "drainnet_request_latency_seconds")
	if got := lat.Quantile(0.5) * 1e3; got < 4.28 || got > 4.29 {
		t.Errorf("latency p50 = %v ms, want 2.5 + 2.5·5/7", got)
	}
	if got := lat.Quantile(0.99) * 1e3; got < 9.83 || got > 9.84 {
		t.Errorf("latency p99 = %v ms, want 5 + 5·2.9/3", got)
	}
	// Between two scrapes only the gain counts.
	if h := gainedHist(s, s, "drainnet_queue_wait_seconds"); h.Count != 0 || h.Sum != 0 || meanMs(h) != 0 || h.Quantile(0.99) != 0 {
		t.Errorf("gain between equal scrapes = %+v", h)
	}
	if s.hist("drainnet_queue_wait_seconds").Count != 10 {
		t.Error("gainedHist changed the scrape it subtracted from")
	}
	if _, err := parseScrape([]byte(`{"items":[{"name":1}]}`)); err == nil {
		t.Error("malformed scrape accepted")
	}
}

func TestProcParsers(t *testing.T) {
	stat := []byte("4242 (drain (net) serve) S 1 4242 4242 0 -1 4194560 1 0 0 0 150 50 0 0 20 0 9 0 100 1 1\n")
	if got, err := parseProcStatCPU(stat); err != nil || got != 2.0 {
		t.Errorf("cpu seconds = %v, %v, want 2", got, err)
	}
	if _, err := parseProcStatCPU([]byte("garbage")); err == nil {
		t.Error("garbage stat line accepted")
	}
	if got, err := parseVmHWM([]byte("Name:\tx\nVmHWM:\t   20480 kB\nVmRSS:\t 1 kB\n")); err != nil || got != 20 {
		t.Errorf("VmHWM = %v, %v, want 20", got, err)
	}
	if _, err := parseVmHWM([]byte("Name:\tx\n")); err == nil {
		t.Error("status without VmHWM accepted")
	}
}

// fakePool is four 1×2×2 clips whose first pixel is the clip's index,
// with made-up reference answers.
func fakePool() *clipPool {
	p := &clipPool{}
	for i := 0; i < 4; i++ {
		img := tensor.New(1, 2, 2)
		img.Data()[0] = float32(i)
		p.samples = append(p.samples, terrain.Sample{Image: img, Target: nn.DetectionTarget{HasObject: i%2 == 0, CX: 0.5, CY: 0.5, W: 0.3, H: 0.3}})
		p.want = append(p.want, metrics.Detection{Score: 0.9 - 0.2*float64(i), Box: metrics.Box{CX: 0.5, CY: 0.5, W: 0.3, H: 0.3}})
		body, _ := json.Marshal(clipJSON{Bands: 1, Size: 2, Pixels: img.Data()})
		p.bodies = append(p.bodies, body)
	}
	return p
}

// TestErrorShareAccounting drives the detect loop against a server that
// answers clip 0 correctly, clip 1 with a wrong score, clip 2 with 429
// and clip 3 too late: the three failures each count, by kind.
func TestErrorShareAccounting(t *testing.T) {
	pool := fakePool()
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req clipJSON
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Error(err)
			return
		}
		i := int(req.Pixels[0])
		want := pool.want[i]
		switch i {
		case 1:
			want.Score += 1e-9
		case 2:
			http.Error(w, `{"error":{"code":"queue_full"}}`, http.StatusTooManyRequests)
			return
		case 3:
			select {
			case <-release:
			case <-r.Context().Done():
			}
			return
		}
		json.NewEncoder(w).Encode(hitJSON{Score: want.Score, HasObject: want.Score >= serveThreshold, Box: &want.Box})
	}))
	defer ts.Close()
	defer close(release)

	traffic := newDetectTraffic(pool, 1, 1)
	client := newClient(20 * time.Millisecond)
	defer client.CloseIdleConnections()
	p := driveDetect(client, ts.URL, traffic, 300*time.Millisecond)
	for _, kind := range []string{failVerify, failStatus, failTransport} {
		if p.mistake[kind] == 0 {
			t.Errorf("no %q failure counted: %v", kind, p.mistake)
		}
	}
	if sum := p.mistake[failVerify] + p.mistake[failStatus] + p.mistake[failTransport]; sum != p.failed {
		t.Errorf("failed = %d, kinds sum to %d", p.failed, sum)
	}
	if p.attempted != p.failed+len(p.latencyMs) || p.clips != len(p.latencyMs) || p.clips == 0 {
		t.Errorf("attempted %d, failed %d, %d latencies, %d clips", p.attempted, p.failed, len(p.latencyMs), p.clips)
	}
	if p.firstError == "" {
		t.Error("first error not kept")
	}
}

func TestCheckJob(t *testing.T) {
	pin := sweepPin{Windows: 10, Candidates: 6, Inferred: 6, HitsSHA256: "abc"}
	ok := jobStatus{ID: "j", State: "done", Windows: 10, Candidates: 6, Inferred: 6}
	if err := checkJob(ok, pin, "abc"); err != nil {
		t.Errorf("matching job rejected: %v", err)
	}
	wrongCount, failed := ok, ok
	wrongCount.Inferred = 5
	failed.State = "failed"
	for name, err := range map[string]error{
		"count":  checkJob(wrongCount, pin, "abc"),
		"digest": checkJob(ok, pin, "abd"),
		"state":  checkJob(failed, pin, "abc"),
	} {
		if err == nil {
			t.Errorf("job with wrong %s accepted", name)
		}
	}
	pin.HitsSHA256 = "" // a dynamic server pins counts only
	if err := checkJob(ok, pin, ""); err != nil {
		t.Errorf("count-only pin rejected: %v", err)
	}
	a := hitsDigest([]sweepHit{{Scenario: "baseline"}})
	b := hitsDigest([]sweepHit{{Scenario: "leaf_off"}})
	if a == b {
		t.Error("digest ignores the scenario")
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "latency_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "clips_per_s", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		m        metricSpec
		old, new []float64
		want     string
	}{
		{lower, []float64{10}, []float64{10.5}, "ok"},
		{lower, []float64{10}, []float64{11.5}, "regressed"},
		{lower, []float64{10}, []float64{8}, "ok"},
		{higher, []float64{100}, []float64{85}, "regressed"},
		{higher, []float64{100}, []float64{120}, "ok"},
		// Spread wider than the bound: unresolved unless every new run wins.
		{lower, []float64{8, 10, 12, 14}, []float64{9, 11, 13, 15}, "unresolved"},
		{lower, []float64{8, 10, 12, 14}, []float64{4, 5, 6, 7}, "ok"},
	} {
		if got, _ := verdict(c.m, c.old, c.new, false); got != c.want {
			t.Errorf("verdict(%s, %v → %v) = %s, want %s", c.m.Name, c.old, c.new, got, c.want)
		}
	}
	if got, _ := verdict(lower, []float64{10}, []float64{8}, true); got != "regressed" {
		t.Errorf("A/A check must flag a 20%% difference in either direction, got %s", got)
	}
}

// TestSpecMatchesHarness checks BENCHMARK.json against the workload
// table and the metrics the harness computes.
func TestSpecMatchesHarness(t *testing.T) {
	spec, err := loadBenchSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the harness", i, w.Name, workloads[i].name)
		}
	}
	// The issue's bound is 0.10 (0.01 on served_ap). The metrics named
	// here carry the driver's maximum, 0.25, instead: setup_s because the
	// driver's contract gives it the largest bound, the other three for
	// the reason README.md gives under "Bounds". Nothing else may exceed
	// 0.10, so a new metric cannot be given a wide bound in passing.
	widened := map[string]bool{"setup_s": true, "clips_per_s": true, "latency_p50_ms": true, "cpu_ms_per_clip": true}
	setup := false
	for _, m := range spec.EndToEnd {
		limit := 0.10
		if widened[m.Name] {
			limit = 0.25
		}
		if m.Bound <= 0 || m.Bound > limit {
			t.Errorf("%s: bound %v outside (0, %v]", m.Name, m.Bound, limit)
		}
		if m.Name == "served_ap" && m.Bound > 0.01 {
			t.Errorf("served_ap: bound %v, want at most 0.01", m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if spec.RunSeconds < 20 {
		t.Errorf("run_seconds %d: every measured phase must last at least 20 s", spec.RunSeconds)
	}
}

// TestSmoke runs each workload for one second against a real child
// server, and one traced run, checking that everything verifies.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs drainnet-serve")
	}
	e, err := newEnv("..")
	if err != nil {
		t.Fatal(err)
	}
	defer e.stopAll()
	e.maxColdStarts = 1
	for _, w := range workloads {
		r, err := e.measure(w, 1, time.Second)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("%s: correct=%t attempted=%d failed=%d: %s", w.name, r.Correct, r.Attempted, r.Failed, r.FirstError)
		}
		for _, m := range e.spec.EndToEnd {
			if v := r.Metrics[m.Name].Value; !(v > 0) {
				t.Errorf("%s: %s = %v, want > 0", w.name, m.Name, v)
			}
		}
	}
	r, err := e.trace(workloads[0], 1, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Correct || len(r.Metrics) != len(e.spec.PerLayer) {
		t.Errorf("traced run: correct=%t, %d metrics of %d", r.Correct, len(r.Metrics), len(e.spec.PerLayer))
	}
	for _, m := range e.spec.PerLayer {
		sweepOnly := strings.HasPrefix(m.Name, "sweep.phase_s.") || m.Name == "sweep.skip_rate" ||
			m.Name == "sweep.candidates" || m.Name == "sweep.exit_rate"
		counter := m.Name == "batcher.rejected" || m.Name == "telemetry.events_dropped" || m.Name == "model.allocs_per_op.fp32.b16"
		signed := m.Name == "trace_overhead_share" || strings.HasSuffix(m.Name, "_ap_drop") || strings.HasPrefix(m.Name, "serve.self_us")
		if v := r.Metrics[m.Name].Value; !sweepOnly && !counter && !signed && !(v > 0) {
			t.Errorf("traced detect_single: %s = %v, want > 0", m.Name, v)
		}
	}
}
