package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"drainnet/internal/model"
	"drainnet/internal/telemetry"
)

// testServerWith builds a serve.Server around the small test model with
// explicit telemetry options.
func testServerWith(t *testing.T, opts Options) *Server {
	t.Helper()
	cfg := model.OriginalSPPNet().Scaled(16).WithInput(4, 40)
	net, err := cfg.Build(rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if opts.Replicas == 0 {
		opts.Replicas = 2
	}
	if opts.MaxBatch == 0 {
		opts.MaxBatch = 4
	}
	s, err := NewWithOptions(cfg, net, 0.5, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// waitFor polls cond: span-derived metrics are folded in asynchronously
// by the pipeline consumer, so scrape assertions poll rather than racing
// the response.
func waitFor(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", msg)
}

func scrape(t *testing.T, url string) (string, *http.Response) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b), resp
}

func TestMetricsEndpointPrometheus(t *testing.T) {
	s := testServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < 3; i++ {
		resp := postJSON(t, ts.URL+"/v1/detect", validDetectRequest())
		resp.Body.Close()
	}
	// The serving counters are synchronous; the span-derived phase
	// histograms fill in once the pipeline consumer catches up, and the
	// HTTP middleware records after the response body is flushed.
	reg := s.Telemetry().Registry()
	spans := reg.Counter("drainnet_spans_total", "")
	waitFor(t, func() bool { return spans.Value() >= 3 }, "3 spans assembled")
	httpDur := reg.HistogramVec("drainnet_http_request_duration_seconds", "", telemetry.TimeBuckets, "route").With("/v1/detect")
	waitFor(t, func() bool { return httpDur.Snapshot().Count >= 3 }, "3 HTTP observations")

	text, resp := scrape(t, ts.URL+"/v1/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type %q", ct)
	}

	for _, want := range []string{
		// Serving counters (synchronous with the request path).
		"drainnet_requests_served_total 3",
		"# TYPE drainnet_batch_size histogram",
		"drainnet_batch_size_count",
		`drainnet_replica_served_total{replica="0"}`,
		`drainnet_replica_served_total{replica="1"}`,
		"# TYPE drainnet_request_latency_seconds histogram",
		// Span-derived phase histograms.
		"# TYPE drainnet_queue_wait_seconds histogram",
		`drainnet_queue_wait_seconds_bucket{le="+Inf"} 3`,
		"# TYPE drainnet_inference_seconds histogram",
		`drainnet_inference_seconds_bucket{le="+Inf"} 3`,
		"drainnet_serialization_seconds_count 3",
		// HTTP middleware metrics.
		`drainnet_http_requests_total{route="/v1/detect",code="200"} 3`,
		`drainnet_http_request_duration_seconds_count{route="/v1/detect"} 3`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/v1/metrics missing %q:\n%s", want, text)
		}
	}
}

func TestMetricsEndpointJSON(t *testing.T) {
	ts := httptest.NewServer(testServer(t).Handler())
	defer ts.Close()
	body, resp := scrape(t, ts.URL+"/v1/metrics?format=json")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var snap struct {
		Items []telemetry.MetricPoint `json:"items"`
	}
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("JSON snapshot did not decode: %v", err)
	}
	if len(snap.Items) == 0 {
		t.Fatal("empty metric snapshot")
	}
}

func TestStatsMatchesRegistry(t *testing.T) {
	// /v1/stats is a view over the same registry /v1/metrics exports;
	// the two must agree exactly.
	s := testServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for i := 0; i < 5; i++ {
		resp := postJSON(t, ts.URL+"/v1/detect", validDetectRequest())
		resp.Body.Close()
	}
	body, _ := scrape(t, ts.URL+"/v1/stats")
	var st struct {
		Served     uint64   `json:"served"`
		Batches    uint64   `json:"batches"`
		PerReplica []uint64 `json:"per_replica_served"`
	}
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	reg := s.Telemetry().Registry()
	if got := reg.Counter("drainnet_requests_served_total", "").Value(); got != st.Served {
		t.Fatalf("registry served %d, stats served %d", got, st.Served)
	}
	if got := reg.Counter("drainnet_batches_total", "").Value(); got != st.Batches {
		t.Fatalf("registry batches %d, stats batches %d", got, st.Batches)
	}
	var perReplica uint64
	for _, n := range st.PerReplica {
		perReplica += n
	}
	if perReplica != st.Served {
		t.Fatalf("per-replica sum %d, served %d", perReplica, st.Served)
	}
}

func TestTraceSamplingEndToEnd(t *testing.T) {
	tel := telemetry.New(telemetry.Options{SampleEvery: 1})
	s := testServerWith(t, Options{Telemetry: tel})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Before any sampled request, /v1/trace is an enveloped 404.
	resp, err := http.Get(ts.URL + "/v1/trace")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("empty trace status %d, want 404", resp.StatusCode)
	}
	env := decodeError(t, resp)
	resp.Body.Close()
	if env.Error.Code != CodeNotFound {
		t.Fatalf("code %q", env.Error.Code)
	}

	resp = postJSON(t, ts.URL+"/v1/detect", validDetectRequest())
	resp.Body.Close()
	traces := tel.Registry().Counter("drainnet_traces_sampled_total", "")
	waitFor(t, func() bool { return traces.Value() >= 1 }, "a sampled trace")

	body, resp := scrape(t, ts.URL+"/v1/trace")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace status %d", resp.StatusCode)
	}
	if resp.Header.Get("Drainnet-Request-Id") == "" {
		t.Fatal("trace missing Drainnet-Request-Id header")
	}
	// Chrome-trace object form: {"traceEvents": [...]} — the /v1 rule
	// that no endpoint returns a bare array.
	var trace struct {
		Events []struct {
			Name string `json:"name"`
			Cat  string `json:"cat"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &trace); err != nil {
		t.Fatalf("trace is not valid Chrome trace JSON: %v", err)
	}
	events := trace.Events
	if len(events) == 0 {
		t.Fatal("traceEvents missing or empty")
	}
	var sawRequest, sawInference, sawLayer bool
	for _, e := range events {
		if e.Ph != "X" {
			t.Fatalf("event %q ph %q, want X", e.Name, e.Ph)
		}
		switch {
		case strings.HasPrefix(e.Name, "request "):
			sawRequest = true
		case strings.HasPrefix(e.Name, "inference "):
			sawInference = true
		case e.Cat == "kernel/layer":
			sawLayer = true
		}
	}
	if !sawRequest || !sawInference || !sawLayer {
		t.Fatalf("trace missing request/inference/layer slices (req=%v inf=%v layer=%v):\n%s",
			sawRequest, sawInference, sawLayer, body)
	}
}

// TestConcurrentRequestsAndScrapes is the -race acceptance test: clients
// hammer /v1/detect while scrapers read /v1/metrics and /v1/stats, all
// against the instrumented hot path.
func TestConcurrentRequestsAndScrapes(t *testing.T) {
	tel := telemetry.New(telemetry.Options{SampleEvery: 4})
	s := testServerWith(t, Options{Telemetry: tel})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const clients, perClient = 6, 10
	errs := make(chan error, clients+2)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perClient; j++ {
				body, _ := json.Marshal(validDetectRequest())
				resp, err := http.Post(ts.URL+"/v1/detect", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("detect status %d", resp.StatusCode)
					return
				}
			}
		}()
	}
	for _, path := range []string{"/v1/metrics", "/v1/stats"} {
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			for j := 0; j < 2*perClient; j++ {
				resp, err := http.Get(ts.URL + path)
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(path)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	served := tel.Registry().Counter("drainnet_requests_served_total", "")
	if served.Value() != clients*perClient {
		t.Fatalf("served %d, want %d", served.Value(), clients*perClient)
	}
	// The router adds this gauge to a worker's load: once the burst has
	// drained it must read 0, not the depth some submit last saw.
	if text, _ := scrape(t, ts.URL+"/v1/metrics"); !strings.Contains(text, "\ndrainnet_queue_depth 0\n") {
		t.Fatalf("drainnet_queue_depth is not 0 after the burst drained:\n%s", text)
	}
	spans := tel.Registry().Counter("drainnet_spans_total", "")
	waitFor(t, func() bool { return spans.Value() >= clients*perClient },
		"all spans assembled")
}

func TestPprofGating(t *testing.T) {
	// Off by default: the catch-all envelope answers.
	ts := httptest.NewServer(testServer(t).Handler())
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof without -pprof: status %d, want 404", resp.StatusCode)
	}
	resp.Body.Close()
	ts.Close()

	ts = httptest.NewServer(testServerWith(t, Options{EnablePprof: true}).Handler())
	defer ts.Close()
	resp, err = http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof with -pprof: status %d, want 200", resp.StatusCode)
	}
}

func TestHTTPMetricsRecordErrorRoutes(t *testing.T) {
	s := testServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/no/such/route")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// The middleware records after the handler returns; the client can
	// see the response first, so poll.
	c := s.Telemetry().Registry().CounterVec("drainnet_http_requests_total", "", "route", "code").With("other", "404")
	waitFor(t, func() bool { return c.Value() == 1 }, `http_requests{route="other",code="404"} = 1`)
}

// /v1/metrics must export Go runtime memory gauges, refreshed at scrape
// time, so the zero-allocation serving claim is observable in production
// (flat heap objects / GC runs under steady load).
func TestMetricsEndpointRuntimeGauges(t *testing.T) {
	s := testServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	text, resp := scrape(t, ts.URL+"/v1/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	for _, want := range []string{
		"# TYPE drainnet_go_heap_alloc_bytes gauge",
		"drainnet_go_heap_alloc_bytes",
		"drainnet_go_heap_sys_bytes",
		"drainnet_go_heap_objects",
		"drainnet_go_gc_pause_total_seconds",
		"drainnet_go_gc_runs_total",
		"drainnet_go_goroutines",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/v1/metrics missing runtime gauge %q:\n%s", want, text)
		}
	}
	// The gauges are live values, not zero placeholders: a running
	// process always has a nonzero heap.
	reg := s.Telemetry().Registry()
	if v := reg.Gauge("drainnet_go_heap_alloc_bytes", "").Value(); v <= 0 {
		t.Fatalf("heap alloc gauge = %v, want > 0", v)
	}
}
