package telemetry

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// emitSpan pushes the full HTTP-request event sequence for one request
// with fixed phase durations (3ms decode, 10ms queue wait, 5ms assembly,
// 25ms inference, 2ms serialization).
func emitSpan(t *Telemetry, id uint64, base time.Time) {
	t.Emit(Event{Kind: EvAccepted, Req: id, At: base.Add(-3 * time.Millisecond)})
	t.Emit(Event{Kind: EvEnqueued, Req: id, At: base})
	t.Emit(Event{Kind: EvBatchFormed, Req: id, At: base.Add(10 * time.Millisecond), Batch: 2})
	t.Emit(Event{Kind: EvDispatch, Req: id, At: base.Add(15 * time.Millisecond), Replica: 1, Batch: 2})
	t.Emit(Event{Kind: EvInferenceDone, Req: id, At: base.Add(40 * time.Millisecond)})
	t.Emit(Event{Kind: EvResponseWritten, Req: id, At: base.Add(42 * time.Millisecond)})
}

func TestSpanAssemblyAggregates(t *testing.T) {
	tel := New(Options{})
	defer tel.Close()

	emitSpan(tel, 1, time.Now())
	tel.Flush()

	if got := tel.spans.Value(); got != 1 {
		t.Fatalf("spans = %d, want 1", got)
	}
	if got := tel.spansIncomplete.Value(); got != 0 {
		t.Fatalf("incomplete = %d, want 0", got)
	}
	checks := []struct {
		h    *Histogram
		name string
		sum  float64
	}{
		{tel.decode, "decode", 0.003},
		{tel.queueWait, "queue_wait", 0.010},
		{tel.batchAssembly, "batch_assembly", 0.005},
		{tel.inference, "inference", 0.025},
		{tel.serialization, "serialization", 0.002},
	}
	for _, c := range checks {
		s := c.h.Snapshot()
		if s.Count != 1 {
			t.Fatalf("%s count = %d, want 1", c.name, s.Count)
		}
		if math.Abs(s.Sum-c.sum) > 1e-9 {
			t.Fatalf("%s sum = %v, want %v", c.name, s.Sum, c.sum)
		}
	}
}

func TestPoolOnlySpanFinalizesOnInferenceDone(t *testing.T) {
	tel := New(Options{})
	defer tel.Close()

	// No EvAccepted and no EvResponseWritten: a direct batcher.Pool user
	// with no HTTP layer. The span must still close on EvInferenceDone.
	base := time.Now()
	tel.Emit(Event{Kind: EvEnqueued, Req: 7, At: base})
	tel.Emit(Event{Kind: EvBatchFormed, Req: 7, At: base.Add(time.Millisecond), Batch: 1})
	tel.Emit(Event{Kind: EvDispatch, Req: 7, At: base.Add(2 * time.Millisecond), Replica: 0, Batch: 1})
	tel.Emit(Event{Kind: EvInferenceDone, Req: 7, At: base.Add(5 * time.Millisecond)})
	tel.Flush()

	if got := tel.spans.Value(); got != 1 {
		t.Fatalf("spans = %d, want 1", got)
	}
	if got := tel.inference.Snapshot().Count; got != 1 {
		t.Fatalf("inference observations = %d, want 1", got)
	}
	if got := tel.decode.Snapshot().Count; got != 0 {
		t.Fatalf("decode observations = %d for a span the HTTP layer never opened, want 0", got)
	}
}

func TestSpanWithoutResultCountsIncomplete(t *testing.T) {
	tel := New(Options{})
	defer tel.Close()

	// A rejected request: accepted and answered by HTTP, but never ran.
	base := time.Now()
	tel.Emit(Event{Kind: EvAccepted, Req: 3, At: base})
	tel.Emit(Event{Kind: EvResponseWritten, Req: 3, At: base.Add(time.Millisecond)})
	tel.Flush()

	if got := tel.spans.Value(); got != 1 {
		t.Fatalf("spans = %d, want 1", got)
	}
	if got := tel.spansIncomplete.Value(); got != 1 {
		t.Fatalf("incomplete = %d, want 1", got)
	}
}

func TestFullRingDropsInsteadOfBlocking(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	tel := New(Options{
		BufferSize:  2,
		SampleEvery: 1,
		TraceSink: func(*Span, []byte) {
			entered <- struct{}{}
			<-release
		},
	})

	// Complete one sampled pool-only span so the consumer parks inside
	// the (blocking) sink. Flush between emissions: the 2-slot ring could
	// otherwise drop a setup event before the consumer drains it.
	base := time.Now()
	tel.Emit(Event{Kind: EvEnqueued, Req: 1, At: base})
	tel.Flush()
	tel.Emit(Event{Kind: EvDispatch, Req: 1, At: base, Replica: 0, Batch: 1})
	tel.Flush()
	tel.Emit(Event{Kind: EvInferenceDone, Req: 1, At: base.Add(time.Millisecond)})
	<-entered

	// With the consumer parked and a 2-slot ring, at most 2 of these 10
	// can be buffered; the rest must be dropped without blocking.
	done := make(chan struct{})
	go func() {
		for i := uint64(100); i < 110; i++ {
			tel.Emit(Event{Kind: EvEnqueued, Req: i, At: base})
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Emit blocked on a full ring")
	}
	if got := tel.dropped.Value(); got < 8 {
		t.Fatalf("dropped = %d, want >= 8", got)
	}
	close(release)
	tel.Close()
}

func TestTraceExportAndLatestTrace(t *testing.T) {
	tel := New(Options{SampleEvery: 2})
	defer tel.Close()

	if tel.Sampled(3) || !tel.Sampled(4) {
		t.Fatal("Sampled(3)/Sampled(4) mismatch for SampleEvery=2")
	}

	base := time.Now()
	id := uint64(4)
	tel.Emit(Event{Kind: EvAccepted, Req: id, At: base})
	tel.Emit(Event{Kind: EvEnqueued, Req: id, At: base})
	tel.Emit(Event{Kind: EvBatchFormed, Req: id, At: base.Add(time.Millisecond), Batch: 1})
	tel.Emit(Event{Kind: EvDispatch, Req: id, At: base.Add(2 * time.Millisecond), Replica: 1, Batch: 1})
	tel.Emit(Event{Kind: EvStageRun, Req: id, At: base.Add(2 * time.Millisecond), Stage: 0, Name: "Conv2D", Dur: 3 * time.Millisecond})
	tel.Emit(Event{Kind: EvStageRun, Req: id, At: base.Add(5 * time.Millisecond), Stage: 1, Name: "Linear", Dur: time.Millisecond})
	tel.Emit(Event{Kind: EvInferenceDone, Req: id, At: base.Add(8 * time.Millisecond)})
	tel.Emit(Event{Kind: EvResponseWritten, Req: id, At: base.Add(9 * time.Millisecond)})
	tel.Flush()

	gotID, trace := tel.LatestTrace()
	if gotID != id || trace == nil {
		t.Fatalf("LatestTrace = (%d, %d bytes), want id %d", gotID, len(trace), id)
	}
	if got := tel.traces.Value(); got != 1 {
		t.Fatalf("traces sampled = %d, want 1", got)
	}

	// The export must be valid Chrome trace-event JSON: an array of
	// complete ("X") events with microsecond timestamps.
	var events []struct {
		Name string  `json:"name"`
		Cat  string  `json:"cat"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		TID  int     `json:"tid"`
	}
	if err := json.Unmarshal(trace, &events); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, trace)
	}
	names := map[string]bool{}
	for _, e := range events {
		names[e.Name] = true
		if e.Ph != "X" {
			t.Fatalf("event %q ph = %q, want X", e.Name, e.Ph)
		}
		if e.Ts < 0 || e.Dur < 0 {
			t.Fatalf("event %q has negative ts/dur: %+v", e.Name, e)
		}
	}
	for _, want := range []string{"queue_wait", "batch_assembly", "serialization", "Conv2D", "Linear"} {
		if !names[want] {
			t.Fatalf("trace missing %q event; have %v", want, names)
		}
	}
	foundRequest, foundInference := false, false
	for n := range names {
		if strings.HasPrefix(n, "request ") {
			foundRequest = true
		}
		if strings.HasPrefix(n, "inference ") {
			foundInference = true
		}
	}
	if !foundRequest || !foundInference {
		t.Fatalf("trace missing request/inference slices; have %v", names)
	}
}

func TestFileSinkWritesValidTrace(t *testing.T) {
	dir := t.TempDir()
	tel := New(Options{SampleEvery: 1, TraceSink: FileSink(dir)})
	defer tel.Close()

	emitSpan(tel, 5, time.Now())
	tel.Flush()

	b, err := os.ReadFile(filepath.Join(dir, "req-5.trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]interface{}
	if err := json.Unmarshal(b, &events); err != nil {
		t.Fatalf("sink file is not valid JSON: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("sink file has no trace events")
	}
}

func TestPendingSpanEviction(t *testing.T) {
	tel := New(Options{MaxPendingSpans: 2})
	defer tel.Close()

	// Three spans opened, none finalized: the third must evict the first.
	base := time.Now()
	for id := uint64(1); id <= 3; id++ {
		tel.Emit(Event{Kind: EvEnqueued, Req: id, At: base})
	}
	tel.Flush()
	if got := tel.spansEvicted.Value(); got != 1 {
		t.Fatalf("evicted = %d, want 1", got)
	}
}

func TestDisabledTelemetry(t *testing.T) {
	tel := NewDisabled()
	if tel.Enabled() {
		t.Fatal("NewDisabled reports Enabled")
	}
	if tel.Sampled(0) {
		t.Fatal("disabled telemetry samples requests")
	}
	// All pipeline entry points must be harmless no-ops.
	tel.Emit(Event{Kind: EvEnqueued, Req: 1, At: time.Now()})
	tel.Flush()
	tel.Close()
	if id, trace := tel.LatestTrace(); id != 0 || trace != nil {
		t.Fatal("disabled telemetry captured a trace")
	}
	// The registry side stays fully usable.
	tel.Registry().Counter("x_total", "x").Inc()
	if got := tel.Registry().Counter("x_total", "x").Value(); got != 1 {
		t.Fatalf("registry counter = %d, want 1", got)
	}
}

func TestCloseIdempotentAndEmitAfterClose(t *testing.T) {
	tel := New(Options{})
	tel.Close()
	tel.Close()
	tel.Emit(Event{Kind: EvEnqueued, Req: 1, At: time.Now()}) // must not panic
	tel.Flush()
}

func TestRequestIDContext(t *testing.T) {
	ctx := context.Background()
	if id, ok := RequestID(ctx); ok || id != 0 {
		t.Fatal("bare context carries a request ID")
	}
	ctx = WithRequestID(ctx, 42)
	if id, ok := RequestID(ctx); !ok || id != 42 {
		t.Fatalf("RequestID = (%d, %v), want (42, true)", id, ok)
	}
}

func TestNextRequestIDUnique(t *testing.T) {
	tel := NewDisabled()
	a, b := tel.NextRequestID(), tel.NextRequestID()
	if a == 0 || b == 0 || a == b {
		t.Fatalf("NextRequestID gave %d, %d; want distinct non-zero", a, b)
	}
}
