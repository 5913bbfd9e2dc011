package sweep

import (
	"context"
	"math/rand"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"drainnet/internal/hydro"
	"drainnet/internal/metrics"
	"drainnet/internal/model"
	"drainnet/internal/serve/batcher"
	"drainnet/internal/tensor"
	"drainnet/internal/terrain"
)

// oracle is a deterministic fake Submitter: it "detects" a crossing at
// the clip center whenever the clip's road and stream bands overlap —
// really the NIR/red structure the renderer draws — by peeking at the
// ground-truth masks through a closure. It keeps tests independent of
// training a real model.
type oracle struct {
	w      *terrain.Watershed
	window int
	img    *tensor.Tensor
	calls  atomic.Int64
	// fail, when set, makes every call return this error.
	fail error
	// slow adds latency per call so cancel/drain tests can interrupt.
	slow time.Duration
}

func (o *oracle) Submit(ctx context.Context, x *tensor.Tensor) (metrics.Detection, error) {
	o.calls.Add(1)
	if o.fail != nil {
		return metrics.Detection{}, o.fail
	}
	if o.slow > 0 {
		select {
		case <-ctx.Done():
			return metrics.Detection{}, ctx.Err()
		case <-time.After(o.slow):
		}
	}
	// Locate the clip in the source raster by matching its first pixel
	// row: the sweep always clips from o.img, so compare windows directly.
	r0, c0, ok := o.locate(x)
	if !ok {
		return metrics.Detection{Score: 0.01}, nil
	}
	// Report the in-window crossing nearest the clip center, so every
	// crossing wins the window centered on it even when several crossings
	// share a window.
	best := metrics.Detection{Score: 0.01, Box: metrics.Box{CX: 0.5, CY: 0.5}}
	bestD := 1 << 30
	mid := o.window / 2
	for _, gt := range o.w.Crossings {
		if gt.R < r0 || gt.R >= r0+o.window || gt.C < c0 || gt.C >= c0+o.window {
			continue
		}
		dr, dc := gt.R-r0-mid, gt.C-c0-mid
		if d := dr*dr + dc*dc; d < bestD {
			bestD = d
			best = metrics.Detection{
				Score: 0.99,
				Box: metrics.Box{
					CX: (float64(gt.C-c0) + 0.5) / float64(o.window),
					CY: (float64(gt.R-r0) + 0.5) / float64(o.window),
				},
			}
		}
	}
	return best, nil
}

// locate finds the clip's origin by scanning candidate origins and
// comparing band-0 contents. O(raster) per call but fine at test sizes.
func (o *oracle) locate(x *tensor.Tensor) (int, int, bool) {
	rows, cols := o.w.Cfg.Rows, o.w.Cfg.Cols
	for r0 := 0; r0+o.window <= rows; r0++ {
		for c0 := 0; c0+o.window <= cols; c0++ {
			if o.matches(x, r0, c0) {
				return r0, c0, true
			}
		}
	}
	return 0, 0, false
}

func (o *oracle) matches(x *tensor.Tensor, r0, c0 int) bool {
	src := o.img.Data()
	clip := x.Data()
	cols := o.w.Cfg.Cols
	for r := 0; r < o.window; r++ {
		for c := 0; c < o.window; c++ {
			if clip[r*o.window+c] != src[(r0+r)*cols+c0+c] {
				return false
			}
		}
	}
	return true
}

func testSpec() Spec {
	return Spec{
		Rows: 128, Cols: 128, Seed: 7,
		Window: 32, Stride: 8,
		MinScore:        0.5,
		MergeRadius:     6,
		MatchRadius:     6,
		RoadSpacing:     56,
		StreamThreshold: 180,
		CheckpointEvery: 16,
	}
}

func newOracle(t *testing.T, spec Spec) *oracle {
	t.Helper()
	spec = spec.WithDefaults(spec.Window)
	sc, err := terrain.ScenarioByName(spec.Scenarios[0])
	if err != nil {
		t.Fatal(err)
	}
	w, err := terrain.Generate(spec.terrainConfig(sc))
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Crossings) == 0 {
		t.Fatal("test watershed has no crossings; adjust spec")
	}
	return &oracle{w: w, window: spec.Window, img: terrain.RenderScenario(w, sc)}
}

func newTestManager(t *testing.T, sub Submitter, dir string) *Manager {
	t.Helper()
	if _, ok := sub.(unitSubmitter); !ok {
		// Four clips in flight, as these tests always ran: fewer than a
		// manager's default, so a slow stub's job is still running when
		// a test drains or cancels it.
		sub = oneByOne{sub, 4}
	}
	m, err := NewManager(ManagerOptions{
		Submit:        sub,
		DefaultWindow: 32,
		Dir:           dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func waitDone(t *testing.T, j *Job) Status {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("job %s did not finish: %+v", j.ID(), j.Status())
	}
	return j.Status()
}

// The prior must cut a meaningful fraction of windows while losing no
// crossings: every ground-truth crossing must fall inside at least one
// candidate window.
func TestCandidatePriorSkipsWithoutLosingCrossings(t *testing.T) {
	spec := testSpec().WithDefaults(32)
	o := newOracle(t, spec)
	cands, total := candidateWindows(o.w, spec)
	if total == 0 || len(cands) == 0 {
		t.Fatalf("degenerate enumeration: %d candidates of %d", len(cands), total)
	}
	if len(cands) >= total {
		t.Fatalf("prior skipped nothing: %d of %d windows are candidates", len(cands), total)
	}
	for _, gt := range o.w.Crossings {
		covered := false
		for _, wd := range cands {
			if gt.R >= wd.r0 && gt.R < wd.r0+spec.Window && gt.C >= wd.c0 && gt.C < wd.c0+spec.Window {
				covered = true
				break
			}
		}
		if !covered {
			t.Fatalf("crossing %v not covered by any candidate window", gt)
		}
	}
	// Disabling the prior must enumerate every window.
	off := spec
	off.Prior.Disabled = true
	all, n := candidateWindows(o.w, off)
	if len(all) != n || n != total {
		t.Fatalf("disabled prior should keep all %d windows, got %d/%d", total, len(all), n)
	}
}

// A full job against the oracle must find the crossings with high AP and
// report coherent per-scenario accounting.
func TestJobSweepsToDoneWithAP(t *testing.T) {
	spec := testSpec()
	o := newOracle(t, spec)
	m := newTestManager(t, o, "")
	defer m.Close()
	j, err := m.Start(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := waitDone(t, j)
	if st.State != StateDone {
		t.Fatalf("state = %q, error = %q", st.State, st.Error)
	}
	if len(st.PerScenario) != 1 {
		t.Fatalf("want 1 scenario summary, got %d", len(st.PerScenario))
	}
	sum := st.PerScenario[0]
	if sum.Scenario != "baseline" {
		t.Fatalf("scenario = %q", sum.Scenario)
	}
	// The oracle (like the real architecture) emits one detection per
	// clip, so a crossing on the raster edge whose every covering window
	// also contains a more-central crossing is unrecoverable; 0.8 leaves
	// room for those edge cases while still proving the pipeline works.
	if sum.Truth == 0 || sum.AP < 0.8 || sum.Recall < 0.8 {
		t.Fatalf("oracle sweep lost too many crossings: %+v", sum)
	}
	if sum.Precision < 0.95 {
		t.Fatalf("oracle sweep produced false positives: %+v", sum)
	}
	if sum.Windows != sum.Candidates+sum.Skipped {
		t.Fatalf("window accounting inconsistent: %+v", sum)
	}
	if st.Inferred != sum.Candidates {
		t.Fatalf("inferred %d != candidates %d", st.Inferred, sum.Candidates)
	}
	if st.SkipRate <= 0 {
		t.Fatalf("skip rate %v should be positive with the prior on", st.SkipRate)
	}
	if int(o.calls.Load()) != sum.Candidates {
		t.Fatalf("oracle saw %d clips, candidates %d", o.calls.Load(), sum.Candidates)
	}
}

// Results pagination must walk all hits in order and terminate with -1.
func TestResultsPagination(t *testing.T) {
	spec := testSpec()
	o := newOracle(t, spec)
	m := newTestManager(t, o, "")
	defer m.Close()
	j, err := m.Start(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := waitDone(t, j)
	if st.Hits == 0 {
		t.Fatal("expected hits")
	}
	var paged []Hit
	cursor := 0
	for steps := 0; ; steps++ {
		page, next := j.Results(cursor, 2)
		paged = append(paged, page...)
		if next < 0 {
			break
		}
		if next <= cursor {
			t.Fatalf("cursor did not advance: %d -> %d", cursor, next)
		}
		cursor = next
		if steps > st.Hits {
			t.Fatal("pagination did not terminate")
		}
	}
	full, next := j.Results(0, 0)
	if next != -1 {
		t.Fatalf("unlimited page should be final, next = %d", next)
	}
	if !reflect.DeepEqual(paged, full) {
		t.Fatalf("paged hits differ from full listing:\n%v\n%v", paged, full)
	}
}

// Killing a manager mid-job (graceful drain) and resuming in a fresh
// manager must finish with results bit-identical to an uninterrupted run.
func TestKillAndResumeBitIdentical(t *testing.T) {
	spec := testSpec()

	// Reference: uninterrupted run.
	oRef := newOracle(t, spec)
	mRef := newTestManager(t, oRef, "")
	jRef, err := mRef.Start(spec)
	if err != nil {
		t.Fatal(err)
	}
	ref := waitDone(t, jRef)
	refHits, _ := jRef.Results(0, 0)
	mRef.Close()

	// Interrupted run: slow oracle, drain mid-sweep, resume elsewhere.
	dir := filepath.Join(t.TempDir(), "ckpt")
	o1 := newOracle(t, spec)
	o1.slow = 2 * time.Millisecond
	m1 := newTestManager(t, o1, dir)
	j1, err := m1.Start(spec)
	if err != nil {
		t.Fatal(err)
	}
	id := j1.ID()
	time.Sleep(40 * time.Millisecond) // let some chunks land
	m1.Close()                        // graceful drain: checkpoint + stop
	if st := j1.Status(); st.State != StateRunning {
		t.Fatalf("drained job should checkpoint as running, got %q (err %q)", st.State, st.Error)
	}

	o2 := newOracle(t, spec)
	m2 := newTestManager(t, o2, dir)
	defer m2.Close()
	if _, err := m2.Resume(); err != nil {
		t.Fatal(err)
	}
	j2, ok := m2.Get(id)
	if !ok {
		t.Fatalf("job %s not resumed", id)
	}
	st := waitDone(t, j2)
	if st.State != StateDone {
		t.Fatalf("resumed job state = %q, error = %q", st.State, st.Error)
	}
	gotHits, _ := j2.Results(0, 0)
	if !reflect.DeepEqual(gotHits, refHits) {
		t.Fatalf("resumed hits differ from uninterrupted run:\n%v\n%v", gotHits, refHits)
	}
	if !reflect.DeepEqual(st.PerScenario, ref.PerScenario) {
		t.Fatalf("resumed summaries differ:\n%+v\n%+v", st.PerScenario, ref.PerScenario)
	}
	if st.Windows != ref.Windows || st.Inferred != ref.Inferred || st.Skipped != ref.Skipped {
		t.Fatalf("resumed counters differ: %+v vs %+v", st, ref)
	}
}

// The same drain/resume guarantee must hold against the real batcher
// pool with a real (random-weight) network — the production wiring.
func TestKillAndResumeThroughBatcherPool(t *testing.T) {
	spec := Spec{
		Rows: 96, Cols: 96, Seed: 11,
		Window: 32, Stride: 16,
		MinScore:        0.05, // random net: keep low so hits exist
		RoadSpacing:     48,
		StreamThreshold: 48,
		CheckpointEvery: 8,
	}
	cfg := model.OriginalSPPNet().Scaled(8).WithInput(terrain.NumBands, spec.Window)
	newPool := func(t *testing.T) *batcher.Pool {
		t.Helper()
		net, err := cfg.Build(rand.New(rand.NewSource(3)))
		if err != nil {
			t.Fatal(err)
		}
		p, err := batcher.New(cfg, net, batcher.Options{
			Replicas: 2, MaxBatch: 4, QueueSize: 32,
		})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	run := func(t *testing.T, interrupt bool, dir string) ([]Hit, Status) {
		pool := newPool(t)
		m := newTestManager(t, pool, dir)
		var j *Job
		var err error
		if interrupt {
			if _, err = m.Resume(); err != nil {
				t.Fatal(err)
			}
			jobs := m.Jobs()
			if len(jobs) != 1 {
				t.Fatalf("want 1 resumed job, got %d", len(jobs))
			}
			j = jobs[0]
		} else {
			j, err = m.Start(spec)
			if err != nil {
				t.Fatal(err)
			}
		}
		st := waitDone(t, j)
		hits, _ := j.Results(0, 0)
		m.Close()
		pool.Close()
		return hits, st
	}

	refHits, refSt := run(t, false, "")
	if refSt.State != StateDone {
		t.Fatalf("reference run: %q (%s)", refSt.State, refSt.Error)
	}

	dir := filepath.Join(t.TempDir(), "ckpt")
	pool1 := newPool(t)
	m1 := newTestManager(t, pool1, dir)
	j1, err := m1.Start(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Drain as soon as the first checkpoint lands, mid-sweep.
	deadline := time.Now().Add(10 * time.Second)
	for j1.Status().Inferred == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	m1.Close()
	pool1.Close()
	if st := j1.Status(); st.State == StateDone {
		t.Skip("job finished before the drain; nothing to resume")
	}

	gotHits, gotSt := run(t, true, dir)
	if gotSt.State != StateDone {
		t.Fatalf("resumed run: %q (%s)", gotSt.State, gotSt.Error)
	}
	if !reflect.DeepEqual(gotHits, refHits) {
		t.Fatalf("resume not bit-identical:\nresumed: %v\nreference: %v", gotHits, refHits)
	}
	if !reflect.DeepEqual(gotSt.PerScenario, refSt.PerScenario) {
		t.Fatalf("summaries differ:\n%+v\n%+v", gotSt.PerScenario, refSt.PerScenario)
	}
}

// Cancel must end the job in state canceled and keep it out of Resume.
func TestCancelPersistsAndDoesNotResume(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpt")
	spec := testSpec()
	o := newOracle(t, spec)
	o.slow = 2 * time.Millisecond
	m := newTestManager(t, o, dir)
	j, err := m.Start(spec)
	if err != nil {
		t.Fatal(err)
	}
	j.Cancel()
	st := waitDone(t, j)
	if st.State != StateCanceled {
		t.Fatalf("state = %q", st.State)
	}
	m.Close()

	m2 := newTestManager(t, newOracle(t, spec), dir)
	defer m2.Close()
	n, err := m2.Resume()
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("canceled job relaunched by Resume (%d)", n)
	}
	j2, ok := m2.Get(j.ID())
	if !ok {
		t.Fatal("canceled job should still be visible for status lookups")
	}
	if got := j2.Status().State; got != StateCanceled {
		t.Fatalf("state after reload = %q", got)
	}
}

// Multi-scenario specs must produce one summary per scenario, and the
// "all" alias must expand to the full suite.
func TestMultiScenarioSweepAndAllAlias(t *testing.T) {
	spec := testSpec()
	spec.Scenarios = []string{"baseline", "flat_plain"}
	// The oracle only knows the baseline watershed, so flat_plain AP will
	// be garbage — this test is about plumbing, not quality.
	o := newOracle(t, spec)
	m := newTestManager(t, o, "")
	defer m.Close()
	j, err := m.Start(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := waitDone(t, j)
	if st.State != StateDone {
		t.Fatalf("state = %q (%s)", st.State, st.Error)
	}
	if len(st.PerScenario) != 2 {
		t.Fatalf("want 2 summaries, got %d", len(st.PerScenario))
	}
	if st.PerScenario[0].Scenario != "baseline" || st.PerScenario[1].Scenario != "flat_plain" {
		t.Fatalf("summaries out of order: %+v", st.PerScenario)
	}
	for _, h := range mustHits(t, j) {
		if h.Scenario == "" {
			t.Fatalf("hit missing scenario tag: %+v", h)
		}
	}

	all := Spec{Rows: 64, Cols: 64, Scenarios: []string{"all"}}.WithDefaults(32)
	if len(all.Scenarios) != len(terrain.Scenarios()) {
		t.Fatalf(`"all" expanded to %v`, all.Scenarios)
	}
}

func mustHits(t *testing.T, j *Job) []Hit {
	t.Helper()
	hits, _ := j.Results(0, 0)
	return hits
}

// Spec validation must reject the obvious foot-guns.
func TestSpecValidate(t *testing.T) {
	bad := []Spec{
		{Rows: 16, Cols: 128},
		{Rows: 128, Cols: 128, Window: 4},
		{Rows: 128, Cols: 128, Window: 256},
		{Rows: maxRasterSide + 1, Cols: 128},
		{Rows: 128, Cols: 128, Scenarios: []string{"volcano"}},
		{Rows: 128, Cols: 128, MinScore: 1.5},
	}
	for i, s := range bad {
		if err := s.WithDefaults(32).Validate(""); err == nil {
			t.Fatalf("spec %d should fail validation: %+v", i, s)
		}
	}
	if err := (Spec{Rows: 128, Cols: 128, Precision: "int8"}).WithDefaults(32).Validate("fp32"); err == nil {
		t.Fatal("precision mismatch should fail")
	}
	if err := (Spec{Rows: 128, Cols: 128, Precision: "fp32"}).WithDefaults(32).Validate("fp32"); err != nil {
		t.Fatal(err)
	}
}

// A failing backend must land the job in state failed with the cause.
func TestBackendFailureFailsJob(t *testing.T) {
	spec := testSpec()
	o := newOracle(t, spec)
	o.fail = context.DeadlineExceeded
	m := newTestManager(t, o, "")
	defer m.Close()
	j, err := m.Start(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := waitDone(t, j)
	if st.State != StateFailed || st.Error == "" {
		t.Fatalf("state = %q, error = %q", st.State, st.Error)
	}
}

// Window enumeration must cover the full raster including clamped tails.
func TestEnumerateWindowsCoversTails(t *testing.T) {
	spec := Spec{Window: 32, Stride: 20}
	wins := enumerateWindows(100, 70, spec)
	sawTailR, sawTailC := false, false
	for _, w := range wins {
		if w.r0 < 0 || w.c0 < 0 || w.r0+32 > 100 || w.c0+32 > 70 {
			t.Fatalf("window out of bounds: %+v", w)
		}
		if w.r0 == 100-32 {
			sawTailR = true
		}
		if w.c0 == 70-32 {
			sawTailC = true
		}
	}
	if !sawTailR || !sawTailC {
		t.Fatalf("tail windows missing (r %v, c %v) in %v", sawTailR, sawTailC, wins)
	}
}

// AP scoring sanity: perfect hits score 1.0, junk scores low, and the
// greedy matcher does not double-count one truth point.
func TestScoreScenario(t *testing.T) {
	truth := []hydro.Point{{R: 10, C: 10}, {R: 50, C: 50}}
	perfect := []Hit{
		{Row: 10, Col: 10, Score: 0.9},
		{Row: 50, Col: 50, Score: 0.8},
	}
	s := scoreScenario("t", perfect, truth, 100, 40, 5)
	if s.AP != 1 || s.Recall != 1 || s.Precision != 1 {
		t.Fatalf("perfect hits: %+v", s)
	}
	if s.Skipped != 60 {
		t.Fatalf("skipped = %d", s.Skipped)
	}
	dup := []Hit{
		{Row: 10, Col: 10, Score: 0.9},
		{Row: 11, Col: 10, Score: 0.85}, // same truth point: must be a FP
	}
	s = scoreScenario("t", dup, truth, 100, 40, 5)
	if s.Recall != 0.5 || s.Precision != 0.5 {
		t.Fatalf("duplicate match not suppressed: %+v", s)
	}
	s = scoreScenario("t", nil, truth, 100, 40, 5)
	if s.AP != 0 || s.Hits != 0 {
		t.Fatalf("empty hits: %+v", s)
	}
}
