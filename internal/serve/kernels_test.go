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
)

// A server started with an autotuned plan must report on /v1/model the
// kernels its served net actually runs, export them as the
// drainnet_kernel_choice gauge, and still serve detections through the
// retargeted kernels.
func TestServeKernelPlanReported(t *testing.T) {
	cfg := model.OriginalSPPNet().Scaled(16).WithInput(4, 40)
	net, err := cfg.Build(rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := model.Compile(cfg, net, nil, model.CompileOptions{Autotune: true, MaxBatch: 16})
	if err != nil {
		t.Fatal(err)
	}
	layers := plan.KernelReport()
	if len(layers) == 0 {
		t.Fatal("test net has no tunable convs")
	}
	for _, l := range layers {
		b1, bn := plan.Served.Modules()[l.Layer].(*nn.Conv2D).Kernels()
		if l.Batch1 != b1.String() || l.BatchN != bn.String() {
			t.Fatalf("report %+v, served conv runs %s/%s", l, b1, bn)
		}
	}

	s, err := NewWithOptions(cfg, net, 0.5, Options{
		Replicas: 1, Plan: plan,
	})
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
	if len(info.Kernels) != len(layers) {
		t.Fatalf("/v1/model reports %d kernel layers, want %d", len(info.Kernels), len(layers))
	}
	for i, l := range info.Kernels {
		if l != layers[i] {
			t.Fatalf("kernel layer %d = %+v, want %+v", i, l, layers[i])
		}
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
	want := `drainnet_kernel_choice{layer="` + layers[0].Name + `",batch="1",kernel="` + layers[0].Batch1 + `"} 1`
	if !strings.Contains(string(body), want) {
		t.Fatalf("metrics missing kernel choice gauge %q:\n%s", want, body)
	}
}

// Without a plan, /v1/model omits the kernels block entirely.
func TestServeKernelPlanOmitted(t *testing.T) {
	ts := httptest.NewServer(testServer(t).Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/model")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if strings.Contains(string(body), `"kernels"`) {
		t.Fatalf("/v1/model reports kernels without a plan:\n%s", body)
	}
}
