package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

func TestHealthzReadyThenDraining(t *testing.T) {
	s := testServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hs HealthStatus
	if err := json.NewDecoder(resp.Body).Decode(&hs); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || hs.Status != "ready" || !hs.Accepting {
		t.Fatalf("fresh server healthz = %d %+v, want 200 ready/accepting", resp.StatusCode, hs)
	}

	s.BeginDrain()
	resp, err = http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&hs); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || hs.Status != "draining" {
		t.Fatalf("draining healthz = %d %+v, want 503 draining", resp.StatusCode, hs)
	}
	// Liveness stays up through a drain — only readiness flips.
	lr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	lr.Body.Close()
	if lr.StatusCode != http.StatusOK {
		t.Fatalf("liveness during drain = %d, want 200", lr.StatusCode)
	}
}

func TestControlBatchingEndpoint(t *testing.T) {
	s := testServer(t) // MaxBatch 4
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	url := ts.URL + "/v1/control/batching"

	retune := func(t *testing.T, body any) (BatchingControl, int) {
		t.Helper()
		resp := postJSON(t, url, body)
		defer resp.Body.Close()
		var out BatchingControl
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Fatal(err)
			}
		}
		return out, resp.StatusCode
	}

	// Keep-everything query echoes the live setting.
	out, code := retune(t, BatchingControl{MaxBatch: 0})
	if code != http.StatusOK || out.MaxBatch != 4 {
		t.Fatalf("query = %d %+v, want 200 {4}", code, out)
	}
	// In-bounds retune is echoed back resolved.
	out, code = retune(t, BatchingControl{MaxBatch: 2})
	if code != http.StatusOK || out.MaxBatch != 2 {
		t.Fatalf("retune = %d %+v, want 200 {2}", code, out)
	}
	// A request over the ceiling comes back clamped, not errored.
	out, code = retune(t, BatchingControl{MaxBatch: 1000})
	if code != http.StatusOK || out.MaxBatch != 4 {
		t.Fatalf("over-ceiling = %d %+v, want 200 {4}", code, out)
	}
	// The wait knob is gone: a body from an older router that still sends
	// max_wait_ms is served like any body with an unknown key, and the
	// reply no longer carries the field.
	resp := postJSON(t, url, map[string]any{"max_batch": 3, "max_wait_ms": 7.5})
	var reply map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if _, has := reply["max_wait_ms"]; resp.StatusCode != http.StatusOK || reply["max_batch"] != 3.0 || has {
		t.Fatalf("body with max_wait_ms = %d %v, want 200 {max_batch: 3}", resp.StatusCode, reply)
	}
	// Negative batch is a client error.
	if _, code = retune(t, BatchingControl{MaxBatch: -1}); code != http.StatusBadRequest {
		t.Fatalf("negative max_batch = %d, want 400", code)
	}
	// GET is not allowed on a control endpoint.
	gr, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	gr.Body.Close()
	if gr.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET control = %d, want 405", gr.StatusCode)
	}
}

func TestRetryAfterFrom(t *testing.T) {
	cases := []struct {
		name string
		p95  float64
		want string
	}{
		{"no observations floors at 1s", 0, "1"},
		{"small p95 floors at 1s", 0.05, "1"},
		{"p95 of 600ms settles in ceil(2.4s) = 3s", 0.6, "3"},
		{"p95 of 250ms → exactly 1s", 0.25, "1"},
		{"p95 just over 250ms rounds up to 2s", 0.26, "2"},
		{"large p95 scales linearly", 5, "20"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := retryAfterFrom(tc.p95); got != tc.want {
				t.Fatalf("retryAfterFrom(%v) = %q, want %q", tc.p95, got, tc.want)
			}
		})
	}
}
