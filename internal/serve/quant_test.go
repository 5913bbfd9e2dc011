package serve

import (
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"drainnet/internal/model"
	"drainnet/internal/nn"
	"drainnet/internal/tensor"
)

// A server handed a quantized net must read the int8 precision off it:
// report it on /v1/model, serve detections, and export the
// precision-labeled latency series.
func TestServePrecisionInt8(t *testing.T) {
	cfg := model.OriginalSPPNet().Scaled(16).WithInput(4, 40)
	net, err := cfg.Build(rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	var batches []*tensor.Tensor
	for i := 0; i < 4; i++ {
		x := tensor.New(8, cfg.InBands, cfg.InSize, cfg.InSize)
		x.RandNormal(rng, 0, 1)
		batches = append(batches, x)
	}
	qnet, rep, err := nn.QuantizeForInference(net, nn.Calibrate(net, batches))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Quantized == 0 {
		t.Fatalf("nothing quantized: %+v", rep)
	}
	s, err := NewWithOptions(cfg, qnet, 0.5, Options{Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var info ModelInfo
	resp, err := http.Get(ts.URL + "/v1/model")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if info.Precision != "int8" {
		t.Fatalf("model precision = %q, want int8", info.Precision)
	}

	dresp := postJSON(t, ts.URL+"/v1/detect", validDetectRequest())
	defer dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("detect status %d", dresp.StatusCode)
	}

	mresp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	body, _ := io.ReadAll(mresp.Body)
	if !strings.Contains(string(body), `drainnet_request_latency_seconds_count{precision="int8"}`) {
		t.Fatalf("metrics missing int8-labeled latency series:\n%s", body)
	}
}

// With no explicit precision, /v1/model reports fp32.
func TestServePrecisionDefaultsFP32(t *testing.T) {
	ts := httptest.NewServer(testServer(t).Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/model")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info ModelInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if info.Precision != "fp32" {
		t.Fatalf("model precision = %q, want fp32", info.Precision)
	}
}
