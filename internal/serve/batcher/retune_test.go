package batcher

import (
	"context"
	"testing"
)

func TestRetuneClampsAndQueries(t *testing.T) {
	p := newTestPool(t, Options{Replicas: 1, MaxBatch: 8, QueueSize: 16})

	// A non-positive batch is the query: the current cap, untouched.
	if mb := p.Retune(0); mb != 8 {
		t.Fatalf("query Retune = %d, want 8", mb)
	}
	// An in-bounds retune takes effect and the query agrees.
	if mb := p.Retune(2); mb != 2 || p.Retune(0) != 2 {
		t.Fatalf("Retune(2) = %d, then the query says %d", mb, p.Retune(0))
	}
	// MaxBatch clamps to the configured ceiling (histogram buckets and
	// batch arenas are sized from Options.MaxBatch).
	if mb := p.Retune(100); mb != 8 {
		t.Fatalf("over-ceiling Retune = %d, want clamp to 8", mb)
	}

	// The pool still serves correctly after retuning to the floor.
	p.Retune(1)
	if _, err := p.Submit(context.Background(), clip(1)); err != nil {
		t.Fatalf("Submit after retune: %v", err)
	}
}

func TestRetuneQueryDoesNotCountAsRetune(t *testing.T) {
	p := newTestPool(t, Options{Replicas: 1, MaxBatch: 4, QueueSize: 16})
	p.Retune(0) // pure query
	p.Retune(2) // real retune
	found := false
	for _, pt := range p.tel.Registry().Snapshot() {
		if pt.Name == "drainnet_retunes_total" {
			found = true
			if pt.Value != 1 {
				t.Fatalf("drainnet_retunes_total = %v, want 1 (queries must not count)", pt.Value)
			}
		}
	}
	if !found {
		t.Fatal("drainnet_retunes_total not exported")
	}
}
