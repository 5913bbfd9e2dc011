package sweep

import (
	"context"
	"testing"

	"drainnet/internal/metrics"
	"drainnet/internal/tensor"
)

// exitingOracle wraps the oracle the way a dynamic-path pool behaves:
// confident negatives come back flagged Exited (the early-exit head
// answered them), positives take the full path.
type exitingOracle struct {
	*oracle
}

func (o *exitingOracle) Submit(ctx context.Context, x *tensor.Tensor) (metrics.Detection, error) {
	det, err := o.oracle.Submit(ctx, x)
	if err == nil && det.Score < 0.5 {
		det.Exited = true
	}
	return det, err
}

// A sweep against a dynamic-path pool must account exits: cumulative and
// per-scenario counters, the status exit rate, and the pool's mask rate
// echoed through ManagerOptions.MaskRate.
func TestSweepAccountsEarlyExits(t *testing.T) {
	spec := testSpec()
	o := &exitingOracle{newOracle(t, spec)}
	m, err := NewManager(ManagerOptions{
		Submit:        o,
		DefaultWindow: 32,
		MaskRate:      func() float64 { return 0.375 },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	j, err := m.Start(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := waitDone(t, j)
	if st.State != StateDone {
		t.Fatalf("job state %s: %+v", st.State, st)
	}
	if st.Exited <= 0 || st.Exited >= st.Inferred {
		t.Fatalf("exited %d of %d inferred; want a strict mix on candidate traffic", st.Exited, st.Inferred)
	}
	want := float64(st.Exited) / float64(st.Inferred)
	if st.ExitRate != want {
		t.Fatalf("exit rate %v, want %v", st.ExitRate, want)
	}
	if st.MaskRate != 0.375 {
		t.Fatalf("mask rate %v not echoed from the pool", st.MaskRate)
	}
	if len(st.PerScenario) != 1 {
		t.Fatalf("want 1 scenario summary, got %d", len(st.PerScenario))
	}
	sum := st.PerScenario[0]
	if sum.Exited != st.Exited {
		t.Fatalf("scenario exited %d, job exited %d", sum.Exited, st.Exited)
	}
	if sum.ExitRate != want {
		t.Fatalf("scenario exit rate %v, want %v", sum.ExitRate, want)
	}
	if got := m.exitRate.With(sum.Scenario).Value(); got != want {
		t.Fatalf("drainnet_sweep_exit_rate{%s} = %v, want %v", sum.Scenario, got, want)
	}
}

// Without a dynamic pool nothing exits: the fields must stay zero so the
// status payload omits them.
func TestSweepExitZeroWithoutDynamic(t *testing.T) {
	spec := testSpec()
	m := newTestManager(t, newOracle(t, spec), "")
	defer m.Close()
	j, err := m.Start(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := waitDone(t, j)
	if st.Exited != 0 || st.ExitRate != 0 || st.MaskRate != 0 {
		t.Fatalf("exit accounting nonzero without dynamic pool: %+v", st)
	}
}

// BenchTraffic must reproduce sweep-skewed traffic: every window of the
// slide as one labeled sample, majority-empty with at least one positive
// covering a real crossing.
func TestBenchTrafficMajorityEmptyMix(t *testing.T) {
	ds, err := BenchTraffic("baseline", 32)
	if err != nil {
		t.Fatal(err)
	}
	if ds.ClipSize != 32 {
		t.Fatalf("clip size %d, want 32", ds.ClipSize)
	}
	var pos, neg int
	for _, s := range ds.Samples {
		if s.Image.Dim(0) != 4 || s.Image.Dim(1) != 32 || s.Image.Dim(2) != 32 {
			t.Fatalf("sample shape %v", s.Image.Shape())
		}
		if s.Target.HasObject {
			pos++
			cx := float32(s.Crossing.C-s.Origin.C) / 32
			if s.Target.CX != cx {
				t.Fatalf("positive CX %v, want %v", s.Target.CX, cx)
			}
		} else {
			neg++
		}
	}
	if pos == 0 {
		t.Fatal("bench traffic has no positives")
	}
	if neg < 3*pos {
		t.Fatalf("bench traffic not majority-empty: %d pos, %d neg", pos, neg)
	}
}
