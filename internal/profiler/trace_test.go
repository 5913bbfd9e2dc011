package profiler

import (
	"bytes"
	"encoding/json"
	"testing"

	"drainnet/internal/gpu"
)

func TestWriteChromeTraceValidJSON(t *testing.T) {
	p := profileBatch(t, 4)
	var buf bytes.Buffer
	if err := gpu.WriteChromeTrace(&buf, p.Events); err != nil {
		t.Fatal(err)
	}
	var events []map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(events) != len(p.Events) {
		t.Fatalf("trace has %d events, ledger has %d", len(events), len(p.Events))
	}
	sawKernel, sawAPI := false, false
	for _, e := range events {
		switch {
		case e["cat"] == "cuda-api":
			sawAPI = true
			if e["tid"].(float64) != 0 {
				t.Fatal("API events must be on the CPU track")
			}
		default:
			sawKernel = true
			if e["tid"].(float64) < 1 {
				t.Fatal("kernel events must be on GPU stream tracks")
			}
		}
		if e["ph"] != "X" {
			t.Fatal("all events must be complete events")
		}
	}
	if !sawKernel || !sawAPI {
		t.Fatal("trace must contain both kernel and API events")
	}
}
