package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"drainnet/internal/serve"
	"drainnet/internal/telemetry"
)

// workerClient talks to one worker's /v1 surface: readiness, the
// metrics scrape the router routes on, and the batching control
// endpoint the adaptive controller retunes through.
type workerClient struct {
	base string // http://addr
	hc   *http.Client
}

func newWorkerClient(addr string) *workerClient {
	return &workerClient{
		base: "http://" + addr,
		// Control-plane budget: probes and scrapes must fail fast so a
		// hung worker is demoted quickly, not waited on.
		hc: &http.Client{Timeout: 2 * time.Second},
	}
}

// healthz probes GET /v1/healthz: ready means 200.
func (c *workerClient) healthz() (ready bool, err error) {
	resp, err := c.hc.Get(c.base + "/v1/healthz")
	if err != nil {
		return false, err
	}
	defer drainClose(resp)
	return resp.StatusCode == http.StatusOK, nil
}

// model fetches GET /v1/model (batching ceiling, precision, geometry).
func (c *workerClient) model() (serve.ModelInfo, error) {
	var info serve.ModelInfo
	resp, err := c.hc.Get(c.base + "/v1/model")
	if err != nil {
		return info, err
	}
	defer drainClose(resp)
	if resp.StatusCode != http.StatusOK {
		return info, fmt.Errorf("cluster: /v1/model status %d", resp.StatusCode)
	}
	return info, json.NewDecoder(resp.Body).Decode(&info)
}

// metrics scrapes GET /v1/metrics?format=json — the same exposition a
// dashboard reads, so routing decisions and dashboards share one signal.
func (c *workerClient) metrics() ([]telemetry.MetricPoint, error) {
	resp, err := c.hc.Get(c.base + "/v1/metrics?format=json")
	if err != nil {
		return nil, err
	}
	defer drainClose(resp)
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cluster: /v1/metrics status %d", resp.StatusCode)
	}
	var body struct {
		Items []telemetry.MetricPoint `json:"items"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, err
	}
	return body.Items, nil
}

// retune POSTs /v1/control/batching and returns the worker's resolved
// (clamped) effective max-batch; 0 asks without changing it.
func (c *workerClient) retune(maxBatch int) (int, error) {
	payload, _ := json.Marshal(serve.BatchingControl{MaxBatch: maxBatch})
	resp, err := c.hc.Post(c.base+"/v1/control/batching", "application/json", bytes.NewReader(payload))
	if err != nil {
		return 0, err
	}
	defer drainClose(resp)
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("cluster: /v1/control/batching status %d", resp.StatusCode)
	}
	var out serve.BatchingControl
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return 0, err
	}
	return out.MaxBatch, nil
}

func drainClose(resp *http.Response) {
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
}

// gaugeValue finds the first sample named name and returns its value.
func gaugeValue(points []telemetry.MetricPoint, name string) (float64, bool) {
	for i := range points {
		if points[i].Name == name {
			return points[i].Value, true
		}
	}
	return 0, false
}

// histogramQuantile merges every child of the named histogram family
// (e.g. the per-precision request-latency series) and estimates the
// q-th quantile over the combined distribution.
func histogramQuantile(points []telemetry.MetricPoint, name string, q float64) (float64, bool) {
	var merged telemetry.HistogramSnapshot
	found := false
	for i := range points {
		p := &points[i]
		if p.Name != name || p.Histogram == nil {
			continue
		}
		h := p.Histogram
		if !found {
			merged = telemetry.HistogramSnapshot{
				Upper:  h.Upper,
				Counts: append([]uint64(nil), h.Counts...),
				Count:  h.Count,
				Sum:    h.Sum,
			}
			found = true
			continue
		}
		if len(h.Counts) != len(merged.Counts) {
			continue // different bucket layout; skip rather than mis-merge
		}
		for j, c := range h.Counts {
			merged.Counts[j] += c
		}
		merged.Count += h.Count
		merged.Sum += h.Sum
	}
	if !found || merged.Count == 0 {
		return 0, false
	}
	return merged.Quantile(q), true
}
