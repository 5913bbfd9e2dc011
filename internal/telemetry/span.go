package telemetry

import "time"

// StageTiming is one executed stage of a sampled forward pass — a fused
// block or the dynamic exit probe: its index, its operator-chain label
// and its wall-clock window.
type StageTiming struct {
	Stage int
	Label string
	Start time.Time
	Dur   time.Duration
}

// Span is the assembled timeline of one request: the event timestamps
// stitched together by the pipeline consumer. Zero times mark phases
// the request never reached (e.g. a rejected request never dispatches).
type Span struct {
	ID uint64

	Accepted    time.Time // HTTP admission (zero for direct pool use)
	Enqueued    time.Time // batcher queue entry
	BatchFormed time.Time // batch sealed by the dispatcher
	Dispatched  time.Time // replica started the forward pass
	Done        time.Time // detection delivered
	Responded   time.Time // HTTP response written

	Replica   int
	BatchSize int
	Stages    []StageTiming

	// http marks spans opened by the HTTP layer, which finalize on
	// EvResponseWritten rather than EvInferenceDone.
	http bool
}

// run is the pipeline consumer: it drains the event ring, assembles
// spans, and folds finalized spans into the registry (the datadog-agent
// event → StreamHandler → aggregator shape).
func (t *Telemetry) run() {
	defer close(t.done)
	pending := make(map[uint64]*Span)
	var order []uint64 // arrival order of pending span IDs, lazily compacted
	for e := range t.events {
		order = t.handle(pending, order, e)
		t.processed.Add(1)
	}
}

func (t *Telemetry) handle(pending map[uint64]*Span, order []uint64, e Event) []uint64 {
	s := pending[e.Req]
	if s == nil {
		order = t.evictIfFull(pending, order)
		s = &Span{ID: e.Req}
		pending[e.Req] = s
		order = append(order, e.Req)
	}
	switch e.Kind {
	case EvAccepted:
		s.Accepted = e.At
		s.http = true
	case EvEnqueued:
		s.Enqueued = e.At
	case EvBatchFormed:
		s.BatchFormed = e.At
		s.BatchSize = e.Batch
	case EvDispatch:
		s.Dispatched = e.At
		s.Replica = e.Replica
		if s.BatchSize == 0 {
			s.BatchSize = e.Batch
		}
	case EvStageRun:
		s.Stages = append(s.Stages, StageTiming{Stage: e.Stage, Label: e.Name, Start: e.At, Dur: e.Dur})
	case EvInferenceDone:
		s.Done = e.At
		// Direct pool users have no HTTP layer to close the span.
		if !s.http {
			t.finalize(pending, s)
		}
	case EvResponseWritten:
		s.Responded = e.At
		t.finalize(pending, s)
	}
	return order
}

// finalize folds one completed span into the aggregate histograms and
// exports it if sampled.
func (t *Telemetry) finalize(pending map[uint64]*Span, s *Span) {
	delete(pending, s.ID)
	t.spans.Inc()
	observe := func(h *Histogram, from, to time.Time) {
		if !from.IsZero() && !to.IsZero() && !to.Before(from) {
			h.Observe(to.Sub(from).Seconds())
		}
	}
	observe(t.decode, s.Accepted, s.Enqueued)
	observe(t.queueWait, s.Enqueued, s.BatchFormed)
	observe(t.batchAssembly, s.BatchFormed, s.Dispatched)
	observe(t.inference, s.Dispatched, s.Done)
	observe(t.serialization, s.Done, s.Responded)
	for _, st := range s.Stages {
		t.stageRun.Observe(st.Dur.Seconds())
	}
	if s.Done.IsZero() {
		t.spansIncomplete.Inc()
		return
	}
	if t.opts.SampleEvery > 0 && s.ID%uint64(t.opts.SampleEvery) == 0 {
		t.exportTrace(s)
	}
}

// evictIfFull keeps the assembly table bounded: when at capacity the
// oldest pending span is dropped (a request that never finished —
// canceled mid-queue with no HTTP layer, or a lost event).
func (t *Telemetry) evictIfFull(pending map[uint64]*Span, order []uint64) []uint64 {
	if len(pending) < t.opts.MaxPendingSpans {
		return compactOrder(pending, order)
	}
	for len(order) > 0 {
		id := order[0]
		order = order[1:]
		if _, ok := pending[id]; ok {
			delete(pending, id)
			t.spansEvicted.Inc()
			break
		}
	}
	return order
}

// compactOrder drops finalized IDs from the order slice once it has
// grown well past the pending set, bounding its memory.
func compactOrder(pending map[uint64]*Span, order []uint64) []uint64 {
	if len(order) < 2*len(pending)+1024 {
		return order
	}
	live := order[:0]
	for _, id := range order {
		if _, ok := pending[id]; ok {
			live = append(live, id)
		}
	}
	return live
}
