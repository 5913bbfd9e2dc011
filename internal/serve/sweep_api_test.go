package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"

	"drainnet/internal/model"
	"drainnet/internal/sweep"
)

// testSweepSpec is sized so a random-weight model finishes it in well
// under a second: 96² raster, 40-px windows (the model's training size).
func testSweepSpec() sweep.Spec {
	return sweep.Spec{
		Rows: 96, Cols: 96, Seed: 5,
		Window: 40, Stride: 24,
		MinScore:        0.05,
		RoadSpacing:     48,
		StreamThreshold: 48,
		CheckpointEvery: 8,
	}
}

func startSweep(t *testing.T, url string, spec sweep.Spec) sweep.Status {
	t.Helper()
	resp := postJSON(t, url+"/v1/sweep", spec)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/sweep status %d", resp.StatusCode)
	}
	var st sweep.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.State != sweep.StateRunning {
		t.Fatalf("bad start status: %+v", st)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/sweep/"+st.ID {
		t.Fatalf("Location %q", loc)
	}
	return st
}

func getStatus(t *testing.T, url, id string) sweep.Status {
	t.Helper()
	resp, err := http.Get(url + "/v1/sweep/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET status %d", resp.StatusCode)
	}
	var st sweep.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func waitState(t *testing.T, url, id, want string) sweep.Status {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st := getStatus(t, url, id)
		if st.State == want {
			return st
		}
		if st.State != sweep.StateRunning {
			t.Fatalf("job %s reached %q (err %q), want %q", id, st.State, st.Error, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not reach %q", id, want)
	return sweep.Status{}
}

func TestSweepJobLifecycleOverHTTP(t *testing.T) {
	s := testServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	st := startSweep(t, ts.URL, testSweepSpec())
	final := waitState(t, ts.URL, st.ID, sweep.StateDone)
	if final.Windows == 0 || final.Inferred == 0 || final.ScenariosDone != 1 {
		t.Fatalf("final status %+v", final)
	}
	if len(final.PerScenario) != 1 || final.PerScenario[0].Scenario != "baseline" {
		t.Fatalf("per-scenario summaries %+v", final.PerScenario)
	}

	// The list endpoint carries the job inside an items envelope.
	resp, err := http.Get(ts.URL + "/v1/sweep")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Items []sweep.Status `json:"items"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Items) != 1 || list.Items[0].ID != st.ID {
		t.Fatalf("list %+v", list)
	}

	// Results: shared Hit schema (point-form), enveloped, paginated.
	var all []Hit
	cursor := "0"
	for {
		resp, err := http.Get(ts.URL + "/v1/sweep/" + st.ID + "/results?limit=2&cursor=" + cursor)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("results status %d", resp.StatusCode)
		}
		var page struct {
			Items      []Hit `json:"items"`
			NextCursor *int  `json:"next_cursor"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		all = append(all, page.Items...)
		if page.NextCursor == nil {
			break
		}
		cursor = itoa(*page.NextCursor)
	}
	if len(all) != final.Hits {
		t.Fatalf("paginated %d hits, status says %d", len(all), final.Hits)
	}
	for _, h := range all {
		if h.Point == nil || h.Box != nil || h.Scenario == "" || !h.HasObject {
			t.Fatalf("sweep hit shape wrong: %+v", h)
		}
	}
}

func itoa(n int) string {
	b, _ := json.Marshal(n)
	return string(b)
}

func TestSweepRejectsBadSpecs(t *testing.T) {
	ts := httptest.NewServer(testServer(t).Handler())
	defer ts.Close()
	for i, body := range []string{
		`{`,                                   // bad JSON
		`{"rows":8,"cols":8}`,                 // raster too small
		`{"rows":96,"cols":96,"window":4}`,    // window too small
		`{"rows":96,"cols":96,"min_score":2}`, // score out of range
		`{"rows":96,"cols":96,"scenarios":["nah"]}`, // unknown scenario
		`{"rows":96,"cols":96,"precision":"int8"}`,  // pool serves fp32
	} {
		resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("case %d: status %d, want 400", i, resp.StatusCode)
		}
		decodeError(t, resp)
		resp.Body.Close()
	}
}

func TestSweepUnknownJobAndBadSubroute(t *testing.T) {
	ts := httptest.NewServer(testServer(t).Handler())
	defer ts.Close()
	for _, path := range []string{"/v1/sweep/sw-0-000", "/v1/sweep/sw-0-000/results", "/v1/sweep//x"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s: status %d, want 404", path, resp.StatusCode)
		}
		env := decodeError(t, resp)
		resp.Body.Close()
		if env.Error.Code != CodeNotFound {
			t.Fatalf("%s: code %q", path, env.Error.Code)
		}
	}
}

func TestSweepCancelOverHTTP(t *testing.T) {
	ts := httptest.NewServer(testServer(t).Handler())
	defer ts.Close()
	spec := testSweepSpec()
	spec.Rows, spec.Cols = 512, 512 // big enough to still be running
	spec.StreamThreshold = 230
	st := startSweep(t, ts.URL, spec)

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sweep/"+st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE status %d", resp.StatusCode)
	}
	resp.Body.Close()
	deadline := time.Now().Add(60 * time.Second)
	for {
		final := getStatus(t, ts.URL, st.ID)
		switch final.State {
		case sweep.StateCanceled:
			return
		case sweep.StateDone:
			t.Skip("job finished before the cancel landed")
		case sweep.StateRunning:
			if time.Now().After(deadline) {
				t.Fatalf("job still running after cancel: %+v", final)
			}
			time.Sleep(5 * time.Millisecond)
		default:
			t.Fatalf("state %q (err %q)", final.State, final.Error)
		}
	}
}

// A server restart mid-job must pick the job back up from its checkpoint
// and run it to completion — the graceful-drain guarantee, through the
// public API surface.
func TestSweepSurvivesServerRestart(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "sweeps")
	spec := testSweepSpec()
	spec.Rows, spec.Cols = 256, 256
	spec.StreamThreshold = 115

	s1 := testServerWith(t, Options{SweepDir: dir})
	ts1 := httptest.NewServer(s1.Handler())
	st := startSweep(t, ts1.URL, spec)
	// Let it make some progress, then drain.
	deadline := time.Now().Add(20 * time.Second)
	for getStatus(t, ts1.URL, st.ID).Inferred == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	ts1.Close()
	s1.Close()

	s2 := testServerWith(t, Options{SweepDir: dir, SweepResume: true})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	final := waitState(t, ts2.URL, st.ID, sweep.StateDone)
	if final.ScenariosDone != 1 || final.Inferred != final.Candidates {
		t.Fatalf("resumed job inconsistent: %+v", final)
	}
}

// 429 responses carry Retry-After guidance; once queue waits have been
// observed, the header derives from the live p95. The end-to-end half
// holds the only replica inside its forward pass (a stage hook on the
// served network blocks until released) and fills the 1-slot queue
// behind it, so the next request is refused on every run.
func TestQueueFullRetryAfter(t *testing.T) {
	cfg := model.OriginalSPPNet().Scaled(16).WithInput(4, 40)
	net, err := cfg.Build(rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewWithOptions(cfg, net, 0.5, Options{Replicas: 1, MaxBatch: 1, QueueSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Unit-level: with no observed waits the fallback is ≥ 1s.
	if got := s.retryAfterSeconds(); got != "1" {
		t.Fatalf("fallback Retry-After %q, want 1", got)
	}
	// Feed the queue-wait histogram directly (get-or-create semantics
	// return the same histogram the pipeline records into): ~10s waits
	// must push the suggestion far above the 1s fallback, to 4× the p95.
	h := s.Telemetry().Registry().Histogram("drainnet_queue_wait_seconds", "", nil)
	for i := 0; i < 100; i++ {
		h.Observe(10)
	}
	p95, ok := s.Telemetry().QueueWaitQuantile(0.95)
	if !ok || p95 <= 1 {
		t.Fatalf("queue-wait p95 = %v, ok = %v after observations", p95, ok)
	}
	want := strconv.Itoa(int(math.Ceil(p95 * 4)))
	if got := s.retryAfterSeconds(); got != want {
		t.Fatalf("histogram-derived Retry-After %q, want %q", got, want)
	}

	// End-to-end. The lone replica serves net itself (the pool's first
	// replica is never a clone), so a hook bound to net now runs inside
	// its forward passes: the first one parks there until released.
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	net.SetStageHook(func(int, string, time.Time, time.Duration) {
		once.Do(func() { close(entered) })
		<-release
	})
	released := false
	defer func() {
		if !released {
			close(release)
		}
	}()
	body, _ := json.Marshal(validDetectRequest())
	post := func() (int, string) {
		resp, err := http.Post(ts.URL+"/v1/detect", "application/json", bytes.NewReader(body))
		if err != nil {
			return 0, err.Error()
		}
		defer resp.Body.Close()
		return resp.StatusCode, resp.Header.Get("Retry-After")
	}
	codes := make(chan int, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, _ := post()
			codes <- code
		}()
		if i == 0 {
			select {
			case <-entered: // the replica is busy
			case <-time.After(10 * time.Second):
				t.Fatal("the replica never started the first request")
			}
		}
	}
	// The second request waits in the queue's one slot.
	deadline := time.Now().Add(10 * time.Second)
	for s.pool.Stats().QueueDepth != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("%d requests waiting, want 1", s.pool.Stats().QueueDepth)
		}
		time.Sleep(100 * time.Microsecond)
	}
	code, retryAfter := post()
	close(release)
	released = true
	wg.Wait()
	close(codes)
	for c := range codes {
		if c != http.StatusOK {
			t.Errorf("a request admitted before the queue filled answered %d, want 200", c)
		}
	}
	if code != http.StatusTooManyRequests {
		t.Fatalf("third request answered %d with the replica busy and the queue full, want 429", code)
	}
	if retryAfter != want {
		t.Fatalf("429 Retry-After %q, want the histogram-derived %q", retryAfter, want)
	}
}
