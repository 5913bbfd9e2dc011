package telemetry

import (
	"context"
	"fmt"
	"time"
)

// EventKind classifies span-pipeline events, one per instrumentation
// point on the serving path.
type EventKind uint8

const (
	// EvAccepted: the HTTP layer admitted the request (handler entry).
	EvAccepted EventKind = iota
	// EvEnqueued: the batcher placed the request on its bounded queue.
	EvEnqueued
	// EvBatchFormed: the dispatcher sealed the request's batch.
	EvBatchFormed
	// EvDispatch: a replica began the batch's forward pass.
	EvDispatch
	// EvInferenceDone: the request's detection was delivered.
	EvInferenceDone
	// EvResponseWritten: the HTTP response was written.
	EvResponseWritten
	// EvStageRun: one stage of a sampled forward pass ran — a fused
	// block or the dynamic exit probe, as the executor serving the batch
	// ran it.
	EvStageRun
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EvAccepted:
		return "accepted"
	case EvEnqueued:
		return "enqueued"
	case EvBatchFormed:
		return "batch_formed"
	case EvDispatch:
		return "dispatch"
	case EvInferenceDone:
		return "inference_done"
	case EvResponseWritten:
		return "response_written"
	case EvStageRun:
		return "stage_run"
	default:
		return fmt.Sprintf("event(%d)", int(k))
	}
}

// Event is one typed observation emitted by an instrumentation point.
// Only the fields relevant to the Kind are set.
type Event struct {
	Kind EventKind
	// Req identifies the request; events with the same Req assemble into
	// one span.
	Req uint64
	// At is when the event happened (EvStageRun: when the stage started).
	At time.Time
	// Dur is the stage's run time (EvStageRun only).
	Dur time.Duration
	// Replica is the serving replica (EvDispatch, EvStageRun).
	Replica int
	// Batch is the sealed batch size (EvBatchFormed, EvDispatch).
	Batch int
	// Name is the stage's operator-chain label (EvStageRun only).
	Name string
	// Stage is the stage's index within the forward pass (EvStageRun
	// only).
	Stage int
}

// ctxKey carries a request ID through a context.
type ctxKey struct{}

// WithRequestID attaches a telemetry request ID to ctx so downstream
// layers (the batcher) emit events against the same span.
func WithRequestID(ctx context.Context, id uint64) context.Context {
	return context.WithValue(ctx, ctxKey{}, id)
}

// RequestID extracts the request ID attached by WithRequestID.
func RequestID(ctx context.Context) (uint64, bool) {
	id, ok := ctx.Value(ctxKey{}).(uint64)
	return id, ok
}
