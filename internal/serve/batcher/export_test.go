package batcher

import (
	"testing"

	"drainnet/internal/tensor"
)

// The test scaffolding handoff_test.go reaches: it is an external test
// package, so that it can drive a real sweep.Manager (package sweep
// imports this one).

func NewTinyPool(t *testing.T, opts Options) *Pool { return newTestPool(t, opts) }

// Stepper runs the pool's batches one at a time: see stepper.
type Stepper struct{ g *stepper }

func NewStepper(t *testing.T, p *Pool) Stepper  { return Stepper{newStepper(t, p)} }
func (s Stepper) Next(t *testing.T) []float64   { return s.g.next(t) }
func (s Stepper) Step()                         { s.g.step() }
func (s Stepper) Open()                         { s.g.open() }
func AwaitWaiting(t *testing.T, p *Pool, n int) { awaitWaiting(t, p, n) }
func Tagged(v float32) *tensor.Tensor           { return tagged(v, 40) }
