package sweep

import (
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"drainnet/internal/serve/batcher"
)

// recorder is a unitSubmitter over pixelOracle: it answers every clip
// from its pixels, as the one-method oracle does, and records what the
// sweep hands it — each SubmitAll's clip count and the most calls ever
// in flight at once. With refuseEvery > 0 every refuseEvery-th call
// refuses the back half of its clips with ErrQueueFull, the way the pool
// refuses the clips past its queue bound.
type recorder struct {
	pixelOracle
	opts        batcher.Options
	refuseEvery int
	// cur is the effective max-batch Retune(0) reports (0: opts.MaxBatch),
	// and hold, when set, keeps every call waiting until it is closed.
	cur  int
	hold chan struct{}

	mu                    sync.Mutex
	calls                 int
	sizes                 []int
	inFlight, maxInFlight int
	answered, refused     int
}

func (r *recorder) Options() batcher.Options { return r.opts }

func (r *recorder) Retune(int) int {
	if r.cur > 0 {
		return r.cur
	}
	return r.opts.MaxBatch
}

func (r *recorder) SubmitAll(clips []batcher.Clip) {
	r.mu.Lock()
	r.calls++
	call := r.calls
	r.sizes = append(r.sizes, len(clips))
	r.inFlight++
	r.maxInFlight = max(r.maxInFlight, r.inFlight)
	r.mu.Unlock()
	if r.hold != nil {
		<-r.hold
	}
	for i := 0; i < 20; i++ {
		runtime.Gosched() // let the other units overlap this one
	}
	keep := len(clips)
	if r.refuseEvery > 0 && call%r.refuseEvery == 0 {
		keep = len(clips) / 2
	}
	for i := range clips {
		c := &clips[i]
		if i >= keep {
			c.Err = batcher.ErrQueueFull
			continue
		}
		c.Det, c.Err = r.pixelOracle.Submit(c.Ctx, c.X)
	}
	r.mu.Lock()
	r.inFlight--
	r.answered += keep
	r.refused += len(clips) - keep
	r.mu.Unlock()
}

// unitSizes is the multiset of unit sizes a sweep cuts: each
// scenario's candidates in chunks of checkpointEvery, each chunk in units
// of size, the last unit of a chunk holding what is left.
func unitSizes(perScenario []ScenarioSummary, checkpointEvery, size int) []int {
	var out []int
	for _, sc := range perScenario {
		for lo := 0; lo < sc.Candidates; lo += checkpointEvery {
			chunk := min(checkpointEvery, sc.Candidates-lo)
			for u := 0; u < chunk; u += size {
				out = append(out, min(size, chunk-u))
			}
		}
	}
	slices.Sort(out)
	return out
}

// A backend with SubmitAll gets the sweep in units: MaxBatch windows
// each but for each chunk's tail, never more than Replicas at once, and
// answers kept in window order, so it sweeps to the hits and counters the
// one-method oracle gets clip by clip.
func TestSweepHandsUnitsOfMaxBatch(t *testing.T) {
	spec := suiteSpec("baseline", "leaf_off")
	wantHits, want := runToDone(t, &pixelOracle{}, spec)
	if len(wantHits) == 0 {
		t.Fatal("degenerate reference: no hits")
	}
	r := &recorder{opts: batcher.Options{MaxBatch: 5, Replicas: 3}}
	gotHits, got := runToDone(t, r, spec)
	if !reflect.DeepEqual(gotHits, wantHits) {
		t.Errorf("hits differ from the clip-by-clip sweep:\n got %v\nwant %v", gotHits, wantHits)
	}
	if got.Inferred != want.Inferred || got.Exited != want.Exited || got.Candidates != want.Candidates {
		t.Errorf("counters differ: %+v, want %+v", got, want)
	}
	sizes := slices.Clone(r.sizes)
	slices.Sort(sizes)
	if wantSizes := unitSizes(got.PerScenario, spec.CheckpointEvery, 5); !slices.Equal(sizes, wantSizes) {
		t.Errorf("unit sizes %v, want %v", sizes, wantSizes)
	}
	if r.maxInFlight > 3 {
		t.Errorf("%d units in flight at once, want at most Replicas = 3", r.maxInFlight)
	}
}

// Units follow the pool's effective max-batch, which /v1/control/batching
// retunes below the configured ceiling, and still sweep to the same hits.
func TestSweepUnitsFollowRetunedCap(t *testing.T) {
	spec := suiteSpec("baseline")
	wantHits, _ := runToDone(t, &pixelOracle{}, spec)
	r := &recorder{opts: batcher.Options{MaxBatch: 16, Replicas: 2}, cur: 3}
	gotHits, got := runToDone(t, r, spec)
	if !reflect.DeepEqual(gotHits, wantHits) {
		t.Errorf("hits differ from the clip-by-clip sweep:\n got %v\nwant %v", gotHits, wantHits)
	}
	sizes := slices.Clone(r.sizes)
	slices.Sort(sizes)
	if wantSizes := unitSizes(got.PerScenario, spec.CheckpointEvery, 3); !slices.Equal(sizes, wantSizes) {
		t.Errorf("unit sizes %v, want %v", sizes, wantSizes)
	}
}

// The in-flight bound is the manager's, not each job's: two jobs
// sweeping at once share Replicas units. Every unit is held until both
// jobs have had time to submit more than their share.
func TestSweepJobsShareInFlightUnits(t *testing.T) {
	spec := suiteSpec("baseline")
	wantHits, _ := runToDone(t, &pixelOracle{}, spec)
	r := &recorder{opts: batcher.Options{MaxBatch: 4, Replicas: 2}, hold: make(chan struct{})}
	m := newTestManager(t, r, "")
	defer m.Close()
	var jobs []*Job
	for range 2 {
		j, err := m.Start(spec)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	deadline := time.Now().Add(10 * time.Second)
	for r.inFlightNow() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("the jobs never put two units in flight")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	if n := r.inFlightNow(); n != 2 {
		t.Errorf("%d units in flight across two jobs, want Replicas = 2", n)
	}
	close(r.hold)
	for _, j := range jobs {
		if st := waitDone(t, j); st.State != StateDone {
			t.Fatalf("state = %q (%s)", st.State, st.Error)
		}
		if hits := mustHits(t, j); !reflect.DeepEqual(hits, wantHits) {
			t.Errorf("job %s: hits differ from the clip-by-clip sweep", j.ID())
		}
	}
	if r.maxInFlight > 2 {
		t.Errorf("%d units in flight at once, want at most Replicas = 2", r.maxInFlight)
	}
}

func (r *recorder) inFlightNow() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.inFlight
}

// Clips the pool refuses at its queue bound go back, and only those,
// until every window is answered: the hits and counters are the
// clip-by-clip sweep's.
func TestSweepRetriesRefusedClips(t *testing.T) {
	spec := suiteSpec("baseline")
	wantHits, want := runToDone(t, &pixelOracle{}, spec)
	r := &recorder{opts: batcher.Options{MaxBatch: 6, Replicas: 2}, refuseEvery: 3}
	gotHits, got := runToDone(t, r, spec)
	if !reflect.DeepEqual(gotHits, wantHits) {
		t.Errorf("hits differ from the clip-by-clip sweep:\n got %v\nwant %v", gotHits, wantHits)
	}
	if got.Inferred != want.Inferred || got.Exited != want.Exited {
		t.Errorf("counters differ: %+v, want %+v", got, want)
	}
	if r.refused == 0 {
		t.Fatal("the recorder refused nothing")
	}
	if r.answered != got.Inferred {
		t.Errorf("%d clips answered for %d windows inferred", r.answered, got.Inferred)
	}
}

// abandoner answers units like recorder until its at-th call, which it
// holds until the job's context ends and then returns as a cancelled
// pool does: every clip Abandoned, its pixels still being read. It keeps
// reading them for hold and reports any change — the sweep must never
// cut a window into a unit buffer the pool may still hold.
type abandoner struct {
	recorder
	t       *testing.T
	at      int
	reached chan struct{}
	hold    time.Duration
	bg      sync.WaitGroup
}

func (a *abandoner) SubmitAll(clips []batcher.Clip) {
	a.mu.Lock()
	a.calls++
	call := a.calls
	a.mu.Unlock()
	if call != a.at {
		for i := range clips {
			c := &clips[i]
			c.Det, c.Err = a.pixelOracle.Submit(c.Ctx, c.X)
		}
		return
	}
	close(a.reached)
	ctx := clips[0].Ctx
	<-ctx.Done()
	for i := range clips {
		c := &clips[i]
		c.Err, c.Abandoned = ctx.Err(), true
		before := slices.Clone(c.X.Data())
		a.bg.Add(1)
		go func(x []float32) {
			defer a.bg.Done()
			for end := time.Now().Add(a.hold); time.Now().Before(end); runtime.Gosched() {
				if !slices.Equal(x, before) {
					a.t.Error("the sweep wrote a unit buffer after its clip came back Abandoned")
					return
				}
			}
		}(c.X.Data())
	}
}

// A cancel that abandons a unit in the pool ends the job without the
// sweep touching that unit's buffer again (run under -race: a write
// would also race with the reads). One replica, and the second of the
// chunk's four units abandoned, so the windows left in the chunk would
// go into that buffer if the sweep went on.
func TestSweepNeverReusesAbandonedUnit(t *testing.T) {
	spec := suiteSpec("baseline")
	a := &abandoner{t: t, at: 2, reached: make(chan struct{}), hold: 20 * time.Millisecond}
	a.opts = batcher.Options{MaxBatch: 4, Replicas: 1}
	m := newTestManager(t, a, "")
	defer m.Close()
	j, err := m.Start(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-a.reached
	j.Cancel()
	if st := waitDone(t, j); st.State != StateCanceled {
		t.Errorf("state = %q (%s), want %q", st.State, st.Error, StateCanceled)
	}
	a.bg.Wait()
}
