package cluster

import (
	"testing"
	"time"
)

func TestNextTuning(t *testing.T) {
	cfg := AutoBatchConfig{TargetP95: 100 * time.Millisecond}
	cases := []struct {
		name string
		cur  int
		obs  BatchObs
		want int
	}{
		{
			name: "no observation holds (after clamping)",
			cur:  8,
			obs:  BatchObs{OK: false, MaxBatchCeiling: 16},
			want: 8,
		},
		{
			name: "over target halves max-batch",
			cur:  8,
			obs:  BatchObs{P95: 0.150, OK: true, MaxBatchCeiling: 16},
			want: 4,
		},
		{
			name: "halving floors at batch 1",
			cur:  1,
			obs:  BatchObs{P95: 0.500, OK: true, MaxBatchCeiling: 16},
			want: 1,
		},
		{
			name: "comfortable with queued demand grows additively",
			cur:  4,
			obs:  BatchObs{P95: 0.020, OK: true, QueueDepth: 3, MaxBatchCeiling: 16},
			want: 5,
		},
		{
			name: "comfortable with no demand holds",
			cur:  4,
			obs:  BatchObs{P95: 0.020, OK: true, QueueDepth: 0, MaxBatchCeiling: 16},
			want: 4,
		},
		{
			name: "comfort band (between target/2 and target) holds",
			cur:  4,
			obs:  BatchObs{P95: 0.075, OK: true, QueueDepth: 10, MaxBatchCeiling: 16},
			want: 4,
		},
		{
			name: "growth clamps at the worker ceiling",
			cur:  16,
			obs:  BatchObs{P95: 0.010, OK: true, QueueDepth: 5, MaxBatchCeiling: 16},
			want: 16,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := NextTuning(tc.cur, tc.obs, cfg); got != tc.want {
				t.Fatalf("NextTuning(%d, %+v) = %d, want %d", tc.cur, tc.obs, got, tc.want)
			}
		})
	}
}

func TestNextTuningConvergesUnderOverload(t *testing.T) {
	// Starting hot and over-SLO, repeated application must settle at the
	// floor instead of oscillating or escaping the bounds.
	cfg := AutoBatchConfig{TargetP95: 50 * time.Millisecond}
	cur := 64
	obs := BatchObs{P95: 1.0, OK: true, QueueDepth: 100, MaxBatchCeiling: 64}
	for i := 0; i < 20; i++ {
		if cur = NextTuning(cur, obs, cfg); cur < 1 {
			t.Fatalf("iteration %d escaped bounds: %d", i, cur)
		}
	}
	if cur != 1 {
		t.Fatalf("did not converge to the floor: %d", cur)
	}
}
