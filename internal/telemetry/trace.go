package telemetry

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"drainnet/internal/gpu"
)

// exportTrace renders a sampled span as Chrome trace-event JSON through
// the same gpu.WriteChromeTrace that drainnet-profile uses, so
// production requests and offline simulator captures open in the same
// chrome://tracing / ui.perfetto.dev view.
func (t *Telemetry) exportTrace(s *Span) {
	events := chromeEvents(s)
	if len(events) == 0 {
		return
	}
	var buf bytes.Buffer
	if err := gpu.WriteChromeTrace(&buf, events); err != nil {
		return
	}
	b := buf.Bytes()
	t.lastTrace.mu.Lock()
	t.lastTrace.id = s.ID
	t.lastTrace.json = b
	t.lastTrace.mu.Unlock()
	t.traces.Inc()
	if t.opts.TraceSink != nil {
		t.opts.TraceSink(s, b)
	}
}

// LatestTrace returns the most recent sampled trace (request ID and
// Chrome trace JSON), or (0, nil) if none has been captured.
func (t *Telemetry) LatestTrace() (uint64, []byte) {
	t.lastTrace.mu.Lock()
	defer t.lastTrace.mu.Unlock()
	return t.lastTrace.id, t.lastTrace.json
}

// chromeEvents lays the span out as ledger events: the request's
// lifecycle phases on one track (stream 0) and the replica's forward
// pass — with a slice per stage the executor ran — on the
// replica's track. Timestamps are relative to the span's first event.
func chromeEvents(s *Span) []gpu.Event {
	t0 := s.Accepted
	if t0.IsZero() || (!s.Enqueued.IsZero() && s.Enqueued.Before(t0)) {
		t0 = s.Enqueued
	}
	if t0.IsZero() {
		return nil
	}
	var out []gpu.Event
	add := func(name, class string, stream int, from, to time.Time) {
		if from.IsZero() || to.IsZero() || to.Before(from) {
			return
		}
		out = append(out, gpu.Event{
			Kind:    gpu.EvKernel,
			Name:    name,
			Class:   class,
			Stream:  stream,
			StartNs: float64(from.Sub(t0).Nanoseconds()),
			DurNs:   float64(to.Sub(from).Nanoseconds()),
		})
	}
	end := s.Responded
	if end.IsZero() {
		end = s.Done
	}
	add(fmt.Sprintf("request %d (batch=%d)", s.ID, s.BatchSize), "request", 0, t0, end)
	add("queue_wait", "phase", 0, s.Enqueued, s.BatchFormed)
	add("batch_assembly", "phase", 0, s.BatchFormed, s.Dispatched)
	add("serialization", "phase", 0, s.Done, s.Responded)
	add(fmt.Sprintf("inference (replica=%d batch=%d)", s.Replica, s.BatchSize),
		"phase", 1+s.Replica, s.Dispatched, s.Done)
	// Stages carry real start times and nest under the replica's
	// inference slice.
	for _, st := range s.Stages {
		add(st.Label, "layer", 1+s.Replica, st.Start, st.Start.Add(st.Dur))
	}
	return out
}

// FileSink returns a TraceSink writing each sampled trace to
// dir/req-<id>.trace.json. Write errors are silently dropped: tracing
// must never take down serving.
func FileSink(dir string) func(*Span, []byte) {
	return func(s *Span, trace []byte) {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return
		}
		name := filepath.Join(dir, fmt.Sprintf("req-%d.trace.json", s.ID))
		_ = os.WriteFile(name, trace, 0o644)
	}
}
