package main

import (
	"encoding/json"
	"os"
	"strings"
	"time"
)

// span is one timed call into a layer, recorded by the harness around
// the call (the program itself is not instrumented by this benchmark).
type span struct {
	ID     int    // 1-based; 0 means "no span"
	Parent int    // the span that caused this one, 0 for a root
	Req    int    // spans of one request share this
	Name   string // "<layer>.<call>", layer = package name
	Start  time.Duration
	End    time.Duration
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// do times f as a child of parent and returns the new span's id.
func (r *recorder) do(parent, req int, name string, f func()) int {
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: req, Name: name})
	start := time.Since(r.t0)
	f()
	end := time.Since(r.t0)
	r.spans[id-1].Start, r.spans[id-1].End = start, end
	return id
}

// selfTimes returns, per span id, the span's duration minus its direct
// children's durations. The harness re-issues the same work one layer
// down as a separate call (the program is not instrumented), so a child
// lies after its parent in time, not inside it, and the subtraction is
// over durations, not intervals. A negative self time means the
// re-issued children ran slower than they did inside the parent.
func selfTimes(spans []span) map[int]time.Duration {
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] += s.End - s.Start
		if s.Parent != 0 {
			out[s.Parent] -= s.End - s.Start
		}
	}
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format, the same shape profiler.WriteChromeTrace and /v1/trace emit.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChromeTrace writes the spans as one trace file, one track per
// request. Children are drawn from their parent's start, one after the
// other, so they nest under it in the viewer (telemetry's /v1/trace
// lays out layer slices the same way); args carry the real start.
func writeChromeTrace(path string, spans []span) error {
	self := selfTimes(spans)
	next := make(map[int]time.Duration, len(spans)) // id → where its next child is drawn
	events := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		at := s.Start
		if s.Parent != 0 {
			at = next[s.Parent]
			next[s.Parent] += s.End - s.Start
		}
		next[s.ID] = at
		layer, _, _ := strings.Cut(s.Name, ".")
		events = append(events, chromeEvent{
			Name: s.Name, Cat: layer, Ph: "X",
			Ts: micros(at), Dur: micros(s.End - s.Start),
			PID: 1, TID: s.Req,
			Args: map[string]any{
				"id": s.ID, "parent": s.Parent, "request": s.Req,
				"start_us": micros(s.Start), "self_us": micros(self[s.ID]),
			},
		})
	}
	buf, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
