package gpu

import (
	"encoding/json"
	"fmt"
	"io"
)

// traceEvent is one entry in Chrome's trace-event JSON format ("X" =
// complete event with duration). Load the output at chrome://tracing or
// ui.perfetto.dev to browse the simulated timeline the way one browses
// an nsys capture.
type traceEvent struct {
	Name string                 `json:"name"`
	Cat  string                 `json:"cat"`
	Ph   string                 `json:"ph"`
	Ts   float64                `json:"ts"`  // microseconds
	Dur  float64                `json:"dur"` // microseconds
	PID  int                    `json:"pid"`
	TID  int                    `json:"tid"`
	Args map[string]interface{} `json:"args,omitempty"`
}

// Track IDs in the exported trace: the CPU API timeline, then one GPU
// track per stream.
const (
	trackCPU      = 0
	trackGPUFirst = 1
)

// WriteChromeTrace serializes the event ledger to the Chrome trace-event
// JSON array format. CPU-side API calls land on tid 0; each GPU stream
// gets its own tid.
func WriteChromeTrace(w io.Writer, events []Event) error {
	var out []traceEvent
	for _, e := range events {
		te := traceEvent{
			Name: e.Kind.String(),
			Ph:   "X",
			Ts:   e.StartNs / 1e3,
			Dur:  e.DurNs / 1e3,
			PID:  1,
		}
		if e.Kind == EvKernel {
			te.Name = e.Name
			te.Cat = "kernel/" + e.Class
			te.TID = trackGPUFirst + e.Stream
			te.Args = map[string]interface{}{"class": e.Class, "stream": e.Stream}
		} else {
			te.Cat = "cuda-api"
			te.TID = trackCPU
			if e.Name != "" && e.Name != e.Kind.String() {
				te.Args = map[string]interface{}{"op": e.Name}
			}
			if e.Bytes > 0 {
				if te.Args == nil {
					te.Args = map[string]interface{}{}
				}
				te.Args["bytes"] = e.Bytes
			}
		}
		out = append(out, te)
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(out); err != nil {
		return fmt.Errorf("gpu: encode chrome trace: %w", err)
	}
	return nil
}
