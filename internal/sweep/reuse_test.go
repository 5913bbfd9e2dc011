package sweep

import (
	"context"
	"hash/fnv"
	"math"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"drainnet/internal/metrics"
	"drainnet/internal/tensor"
	"drainnet/internal/terrain"
)

// pixelOracle is a Submitter whose answer is a pure function of the
// clip's pixels — score, box and the early-exit flag all come from one
// hash — so any two sweeps that cut the same clips from the same rasters
// must report the same hits, whichever watershed object they came from.
type pixelOracle struct {
	calls atomic.Int64
	// slow adds latency per call so a drain can land mid-scenario.
	slow time.Duration
	// reached is closed when the at-th call arrives (at 0 never fires).
	at      int64
	reached chan struct{}
}

func (o *pixelOracle) Submit(ctx context.Context, x *tensor.Tensor) (metrics.Detection, error) {
	if n := o.calls.Add(1); n == o.at {
		close(o.reached)
	}
	if o.slow > 0 {
		select {
		case <-ctx.Done():
			return metrics.Detection{}, ctx.Err()
		case <-time.After(o.slow):
		}
	}
	h := fnv.New64a()
	var b [4]byte
	for _, v := range x.Data() {
		bits := math.Float32bits(v)
		b[0], b[1], b[2], b[3] = byte(bits), byte(bits>>8), byte(bits>>16), byte(bits>>24)
		h.Write(b[:])
	}
	sum := h.Sum64()
	return metrics.Detection{
		Score:  float64(sum%1000) / 1000,
		Box:    metrics.Box{CX: float64(sum>>10%100) / 100, CY: float64(sum>>20%100) / 100},
		Exited: sum>>30&1 == 1,
	}, nil
}

// suiteSpec is testSpec over the given scenarios; every suite scenario
// generates crossings at this size and seed.
func suiteSpec(scenarios ...string) Spec {
	spec := testSpec()
	spec.Scenarios = scenarios
	return spec
}

var interleaved = []string{"flat_plain", "baseline", "flat_plain"}

// The scene generates a watershed, and extracts its windows, only when the
// config differs from the previous scenario's: 3 times over the default
// suite instead of 7 (five scenarios share the baseline config), and it
// announces exactly the stages it runs, so Status.Phase never shows one
// that was skipped. It renders each watershed once, 3 times over the
// suite, and the other scenarios perturb that render, in one work image
// per watershed: 4 images over the suite. One entry only: an interleaved
// order regenerates.
func TestSceneGeneratesEachDistinctConfigOnce(t *testing.T) {
	fresh := []string{"generate", "render", "extract"}
	reused := []string{"render"}
	for _, tc := range []struct {
		scenarios []string
		want      [][]string
		images    int
	}{
		{[]string{"all"}, [][]string{fresh, reused, reused, reused, reused, fresh, fresh}, 4},
		{interleaved, [][]string{fresh, fresh, fresh}, 3},
	} {
		spec := suiteSpec(tc.scenarios...).WithDefaults(32)
		scenarios, err := spec.scenarios()
		if err != nil {
			t.Fatal(err)
		}
		var prep scene
		generated, rendered := 0, 0
		images := map[*tensor.Tensor]bool{}
		for i, sc := range scenarios {
			kept := prep.base // the render the previous scenario left
			var phases []string
			img, err := prep.prepare(spec, scenarios[i:], func(phase string) { phases = append(phases, phase) })
			if err != nil {
				t.Fatal(err)
			}
			if kept == nil || prep.base != kept && img != kept {
				rendered++ // it neither kept the render nor perturbed it in place
			}
			images[img] = true
			if !reflect.DeepEqual(phases, tc.want[i]) {
				t.Errorf("%v scenario %d (%s): stages %v, want %v", tc.scenarios, i, sc.Name, phases, tc.want[i])
			}
			if phases[0] == "generate" {
				generated++
			}
			// Whatever was reused, the scene must be what preparing the
			// scenario from nothing gives.
			var alone scene
			imgAlone, err := alone.prepare(spec, scenarios[i:i+1], func(string) {})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(img.Data(), imgAlone.Data()) {
				t.Errorf("%s: image differs from a fresh preparation", sc.Name)
			}
			if !reflect.DeepEqual(prep.cands, alone.cands) || prep.total != alone.total {
				t.Errorf("%s: candidate windows differ from a fresh preparation", sc.Name)
			}
			if !reflect.DeepEqual(prep.w.Crossings, alone.w.Crossings) {
				t.Errorf("%s: crossings differ from a fresh preparation", sc.Name)
			}
			if prep.w.BaseDEM != nil || prep.w.DEM != nil {
				t.Errorf("%s: the scene keeps DEMs the sweep never reads", sc.Name)
			}
		}
		if want := 3; generated != want {
			t.Errorf("%v: terrain.Generate ran %d times, want %d", tc.scenarios, generated, want)
		}
		if want := 3; rendered != want {
			t.Errorf("%v: terrain.Render ran %d times, want %d", tc.scenarios, rendered, want)
		}
		if len(images) != tc.images {
			t.Errorf("%v: the scenarios were perturbed in %d images, want %d", tc.scenarios, len(images), tc.images)
		}
	}

	// A single-scenario job perturbs its one render in place: preparing
	// it allocates no more than generating, rendering the scenario and
	// extracting its windows directly, so no second image, and the scene
	// keeps no render once the job's last scenario has it.
	spec := suiteSpec("cloud_shadow").WithDefaults(32)
	scenarios, err := spec.scenarios()
	if err != nil {
		t.Fatal(err)
	}
	sc := scenarios[0]
	direct := allocatedBytes(func() {
		w, err := terrain.Generate(spec.terrainConfig(sc))
		if err != nil {
			t.Fatal(err)
		}
		w.BaseDEM, w.DEM = nil, nil
		terrain.RenderScenario(w, sc)
		candidateWindows(w, spec)
	})
	var prep scene
	var img *tensor.Tensor
	prepared := allocatedBytes(func() {
		if img, err = prep.prepare(spec, scenarios, func(string) {}); err != nil {
			t.Fatal(err)
		}
	})
	if imageBytes := uint64(4 * len(img.Data())); prepared > direct+imageBytes/2 {
		t.Errorf("a single-scenario prepare allocates %d B, %d B more than generating and rendering it directly: a second %d B image", prepared, prepared-direct, imageBytes)
	}
	if prep.base != nil {
		t.Error("a single-scenario scene keeps a render no later scenario needs")
	}
}

func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// runToDone sweeps spec on a fresh manager and returns what a client can
// read of the finished job.
func runToDone(t *testing.T, sub Submitter, spec Spec) ([]Hit, Status) {
	t.Helper()
	m := newTestManager(t, sub, "")
	defer m.Close()
	j, err := m.Start(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := waitDone(t, j)
	if st.State != StateDone {
		t.Fatalf("state = %q (%s)", st.State, st.Error)
	}
	return mustHits(t, j), st
}

// A job that reuses watersheds must report exactly what a loop of
// single-scenario jobs — each generating its own — reports: hits,
// summaries and counters. Meanwhile a poller watches Status: a scenario
// that reuses the previous watershed must never be seen generating or
// extracting.
func TestMemoisingJobEqualsPerScenarioJobs(t *testing.T) {
	for _, scenarios := range [][]string{{"all"}, interleaved} {
		spec := suiteSpec(scenarios...)
		names := spec.WithDefaults(32).Scenarios

		var wantHits []Hit
		var wantSums []ScenarioSummary
		var want Counters
		for _, name := range names {
			hits, st := runToDone(t, &pixelOracle{}, suiteSpec(name))
			wantHits = append(wantHits, hits...)
			wantSums = append(wantSums, st.PerScenario...)
			want.Windows += st.Windows
			want.Candidates += st.Candidates
			want.Skipped += st.Skipped
			want.Inferred += st.Inferred
			want.Exited += st.Exited
		}
		if len(wantHits) == 0 || want.Exited == 0 || want.Skipped == 0 {
			t.Fatalf("degenerate reference: %d hits, counters %+v", len(wantHits), want)
		}

		m := newTestManager(t, &pixelOracle{}, "")
		j, err := m.Start(spec)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[[2]string]bool{} // (scenario, phase) pairs observed
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				st := j.Status()
				seen[[2]string{st.Scenario, st.Phase}] = true
				select {
				case <-j.Done():
					return
				case <-time.After(50 * time.Microsecond):
				}
			}
		}()
		st := waitDone(t, j)
		wg.Wait()
		gotHits := mustHits(t, j)
		m.Close()

		if st.State != StateDone {
			t.Fatalf("%v: state = %q (%s)", scenarios, st.State, st.Error)
		}
		if !reflect.DeepEqual(gotHits, wantHits) {
			t.Errorf("%v: hits differ from per-scenario jobs:\n%v\n%v", scenarios, gotHits, wantHits)
		}
		if !reflect.DeepEqual(st.PerScenario, wantSums) {
			t.Errorf("%v: summaries differ from per-scenario jobs:\n%+v\n%+v", scenarios, st.PerScenario, wantSums)
		}
		got := Counters{Windows: st.Windows, Candidates: st.Candidates, Skipped: st.Skipped, Inferred: st.Inferred, Exited: st.Exited}
		if got != want {
			t.Errorf("%v: counters %+v, per-scenario jobs sum to %+v", scenarios, got, want)
		}
		if len(scenarios) == 1 { // the suite: these four reuse baseline's watershed
			for _, name := range []string{"leaf_off", "green_up", "noisy_sensor", "cloud_shadow"} {
				for _, phase := range []string{"generate", "extract"} {
					if seen[[2]string{name, phase}] {
						t.Errorf("Status reported %s in phase %s, a stage the reuse skips", name, phase)
					}
				}
			}
		}
	}
}

// A job drained inside a scenario that was reusing the previous
// scenario's watershed resumes in a process that holds no watershed at
// all: it regenerates, and must still finish bit-identical to the
// uninterrupted run.
func TestKillAndResumeMidSuiteRegenerates(t *testing.T) {
	spec := suiteSpec("all")
	refHits, ref := runToDone(t, &pixelOracle{}, spec)

	// Drain halfway through the third scenario (green_up, which reuses
	// the baseline watershed when nothing interrupts).
	at := ref.PerScenario[0].Candidates + ref.PerScenario[1].Candidates + ref.PerScenario[2].Candidates/2
	dir := filepath.Join(t.TempDir(), "ckpt")
	o1 := &pixelOracle{slow: time.Millisecond, at: int64(at), reached: make(chan struct{})}
	m1 := newTestManager(t, o1, dir)
	j1, err := m1.Start(spec)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-o1.reached:
	case <-time.After(30 * time.Second):
		t.Fatalf("job never reached clip %d: %+v", at, j1.Status())
	}
	m1.Close()
	st1 := j1.Status()
	if st1.State != StateRunning {
		t.Fatalf("drained job should checkpoint as running, got %q (err %q)", st1.State, st1.Error)
	}
	if st1.ScenariosDone < 2 || st1.ScenariosDone > 3 {
		t.Fatalf("drain landed after %d scenarios, want it inside the third or fourth", st1.ScenariosDone)
	}

	m2 := newTestManager(t, &pixelOracle{}, dir)
	defer m2.Close()
	if _, err := m2.Resume(); err != nil {
		t.Fatal(err)
	}
	j2, ok := m2.Get(j1.ID())
	if !ok {
		t.Fatalf("job %s not resumed", j1.ID())
	}
	st := waitDone(t, j2)
	if st.State != StateDone {
		t.Fatalf("resumed job state = %q, error = %q", st.State, st.Error)
	}
	if gotHits := mustHits(t, j2); !reflect.DeepEqual(gotHits, refHits) {
		t.Fatalf("resumed hits differ from uninterrupted run:\n%v\n%v", gotHits, refHits)
	}
	if !reflect.DeepEqual(st.PerScenario, ref.PerScenario) {
		t.Fatalf("resumed summaries differ:\n%+v\n%+v", st.PerScenario, ref.PerScenario)
	}
	if st.Windows != ref.Windows || st.Candidates != ref.Candidates || st.Skipped != ref.Skipped ||
		st.Inferred != ref.Inferred || st.Exited != ref.Exited {
		t.Fatalf("resumed counters differ: %+v vs %+v", st, ref)
	}
}

// BenchmarkScenePrepare prepares every scenario of one job of the
// benchmark harness's sweep workloads (benchmark/load.go), at the served
// model's 40-pixel window: prior is sweep_prior's priorSpec(21) and (22),
// 512², all seven scenarios; dense is sweep_dense's four single-scenario
// 512² jobs, seeds 11–14. An op is one job, the workload's jobs in turn,
// so ns/op is what a job spends before and between its inferences.
func BenchmarkScenePrepare(b *testing.B) {
	prior := func(seed int64) Spec {
		return Spec{Rows: 512, Cols: 512, Seed: seed, RoadSpacing: 256, StreamThreshold: 460.8, Scenarios: []string{"all"}}
	}
	dense := func(seed int64, scenario string) Spec {
		s := Spec{Rows: 512, Cols: 512, Seed: seed, Stride: 10, Scenarios: []string{scenario}}
		s.Prior.Disabled = true
		return s
	}
	for _, bc := range []struct {
		name  string
		specs []Spec
	}{
		{"prior", []Spec{prior(21), prior(22)}},
		{"dense", []Spec{dense(11, "baseline"), dense(12, "leaf_off"), dense(13, "noisy_sensor"), dense(14, "cloud_shadow")}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			type job struct {
				spec      Spec
				scenarios []terrain.Scenario
			}
			jobs := make([]job, len(bc.specs))
			for i, spec := range bc.specs {
				spec = spec.WithDefaults(40)
				scenarios, err := spec.scenarios()
				if err != nil {
					b.Fatal(err)
				}
				jobs[i] = job{spec, scenarios}
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				jb := jobs[i%len(jobs)]
				var prep scene
				for si := range jb.scenarios {
					if _, err := prep.prepare(jb.spec, jb.scenarios[si:], func(string) {}); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
