package batcher_test

import (
	"context"
	"slices"
	"sync"
	"testing"
	"time"

	"drainnet/internal/serve/batcher"
	"drainnet/internal/sweep"
)

// A sweep manager keeps at most Replicas units of the effective
// max-batch in the pool across all its jobs, so an interactive clip never
// queues behind sweep clips that are not yet running: with both replicas
// held inside sweep units, nothing else is queued, and with one of them
// freed the /v1/detect clip is in the next batch a replica starts. That
// holds at the configured cap, at a cap retuned below it, and with two
// jobs sweeping at once.
func TestSweepLeavesInteractiveClipTheNextBatch(t *testing.T) {
	for _, tc := range []struct {
		name       string
		retune     int // 0 keeps the configured cap
		jobs, unit int
	}{
		{"one job", 0, 1, 16},
		{"retuned cap", 4, 1, 4},
		{"two jobs", 0, 2, 16},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const replicas, maxBatch = 2, 16
			p := batcher.NewTinyPool(t, batcher.Options{Replicas: replicas, MaxBatch: maxBatch, QueueSize: 64})
			g := batcher.NewStepper(t, p)
			if tc.retune > 0 {
				p.Retune(tc.retune)
			}
			m, err := sweep.NewManager(sweep.ManagerOptions{Submit: p, Bands: 4, DefaultWindow: 40})
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			defer g.Open() // before the manager's Close waits on the jobs

			spec := sweep.Spec{Rows: 128, Cols: 128, Seed: 7, Stride: 8, RoadSpacing: 56, StreamThreshold: 180}
			spec.Prior.Disabled = true
			var jobs []*sweep.Job
			for range tc.jobs {
				j, err := m.Start(spec)
				if err != nil {
					t.Fatal(err)
				}
				jobs = append(jobs, j)
			}
			// Both replicas take a whole unit and park inside it.
			for i := 0; i < replicas; i++ {
				if got := g.Next(t); len(got) != tc.unit {
					t.Fatalf("replica %d started a batch of %d sweep clips, want a unit of %d", i, len(got), tc.unit)
				}
			}
			// The manager has Replicas units in flight, both running: no
			// job queues more.
			time.Sleep(20 * time.Millisecond)
			if st := p.Stats(); st.QueueDepth != 0 {
				t.Fatalf("%d sweep clips wait behind the two running units, want 0", st.QueueDepth)
			}

			const interactive = -7
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := p.Submit(context.Background(), batcher.Tagged(interactive)); err != nil {
					t.Error(err)
				}
			}()
			batcher.AwaitWaiting(t, p, 1)
			// One replica finishes its unit; the other stays held. A
			// sweep's next unit may arrive before the freed replica looks,
			// but queues behind the interactive clip.
			g.Step()
			if got := g.Next(t); !slices.Contains(got, interactive) {
				t.Fatalf("the next batch %v does not hold the interactive clip", got)
			}
			g.Open()
			wg.Wait()
			for _, j := range jobs {
				if st := waitJob(t, j); st.State != sweep.StateDone {
					t.Fatalf("sweep ended %q: %s", st.State, st.Error)
				}
			}
		})
	}
}

func waitJob(t *testing.T, j *sweep.Job) sweep.Status {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("job %s did not finish: %+v", j.ID(), j.Status())
	}
	return j.Status()
}
