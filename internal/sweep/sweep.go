// Package sweep runs watershed-scale detection jobs: it generates a full
// synthetic watershed (internal/terrain + internal/hydro), extracts
// candidate windows with a cheap hydrological prior (only tiles near both
// a road and a stream can contain a drainage crossing), streams the
// surviving clips through a serving pool (internal/serve/batcher), and
// merges the detections into raster-coordinate crossings with AP scored
// per scenario against the generator's ground truth.
//
// A sweep is the paper's real workload — continuous rasters, not pre-cut
// 100×100 clips — and the traffic is exactly the skewed, mostly-empty
// distribution the serving stack is tuned for: the prior typically skips
// the large majority of windows before they ever reach the model.
//
// Jobs are long-running and resumable: progress (scenario index, window
// cursor, raw hits, counters) checkpoints to disk after every chunk, and
// resuming a killed job finishes with bit-identical results, because
// window enumeration is a pure function of the spec and the inference
// fast path is deterministic per clip regardless of batch composition.
//
// A job builds each distinct watershed once: consecutive scenarios whose
// terrain.Config is equal (five of the suite's seven differ only in
// imaging conditions) share one generated watershed and one set of
// candidate windows and only re-render. The job keeps that single
// previous scenario, nothing more; a resumed job starts with none and
// regenerates the scenario it stopped in, to the same bits.
//
// The Manager owns job lifecycle (start, status, results pagination,
// cancel, drain, resume) for both the /v1/sweep HTTP API and the
// drainnet-sweep CLI.
package sweep

import (
	"fmt"
	"sort"

	"drainnet/internal/hydro"
	"drainnet/internal/terrain"
)

// Spec is a sweep job specification — the POST /v1/sweep payload. Zero
// fields select documented defaults, so {"rows":1024,"cols":1024} is a
// complete job.
type Spec struct {
	// Rows, Cols size the synthetic watershed raster (min 64 per side).
	Rows int `json:"rows"`
	Cols int `json:"cols"`
	// Seed drives watershed synthesis; the same spec always sweeps the
	// same raster.
	Seed int64 `json:"seed"`
	// Window is the sliding-window side length in cells (0 → the served
	// model's training clip size).
	Window int `json:"window,omitempty"`
	// Stride is the window step (0 → Window/2).
	Stride int `json:"stride,omitempty"`
	// MinScore keeps only confident detections (0 → 0.95).
	MinScore float64 `json:"min_score,omitempty"`
	// MergeRadius collapses detections within this many cells of a
	// higher-scoring one (0 → Window/3).
	MergeRadius int `json:"merge_radius,omitempty"`
	// MatchRadius is the AP scoring tolerance against ground-truth
	// crossings (0 → Window/4).
	MatchRadius int `json:"match_radius,omitempty"`
	// Scenarios names the terrain/imaging scenarios to sweep
	// (terrain.Scenarios); empty → ["baseline"], ["all"] → the full suite.
	Scenarios []string `json:"scenarios,omitempty"`
	// Precision, when set, must match the precision the pool serves at
	// ("fp32"/"int8"); it exists so a job spec can pin its numeric
	// contract instead of silently inheriting whatever the server runs.
	Precision string `json:"precision,omitempty"`
	// Prior configures the candidate-extraction prior.
	Prior PriorSpec `json:"prior,omitempty"`
	// CheckpointEvery is the number of candidate windows inferred between
	// checkpoints (0 → 256).
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
	// RoadSpacing and StreamThreshold override the terrain generator's
	// knobs (0 → scaled from the raster size).
	RoadSpacing     int     `json:"road_spacing,omitempty"`
	StreamThreshold float64 `json:"stream_threshold,omitempty"`
}

// PriorSpec tunes the road×stream proximity prior that keeps empty tiles
// away from the model.
type PriorSpec struct {
	// Disabled sends every window to the model (the brute-force scan).
	Disabled bool `json:"disabled,omitempty"`
	// RoadRadius / StreamRadius are the Chebyshev dilation radii in cells
	// applied to the road and stream masks before intersecting them
	// (0 → Window/4, min 2). A window is a candidate iff it overlaps the
	// dilated intersection.
	RoadRadius   int `json:"road_radius,omitempty"`
	StreamRadius int `json:"stream_radius,omitempty"`
}

// maxRasterSide bounds a job's raster so a typo'd spec cannot OOM the
// server (16384² cells ≈ 4 GiB rendered).
const maxRasterSide = 16384

// WithDefaults resolves every zero field against the served model's clip
// size, returning the fully-specified spec that is checkpointed and
// reported back by the job API.
func (s Spec) WithDefaults(defaultWindow int) Spec {
	if s.Window <= 0 {
		s.Window = defaultWindow
	}
	if s.Stride <= 0 {
		s.Stride = maxInt(1, s.Window/2)
	}
	if s.MinScore <= 0 {
		s.MinScore = 0.95
	}
	if s.MergeRadius <= 0 {
		s.MergeRadius = maxInt(1, s.Window/3)
	}
	if s.MatchRadius <= 0 {
		s.MatchRadius = maxInt(1, s.Window/4)
	}
	if len(s.Scenarios) == 0 {
		s.Scenarios = []string{"baseline"}
	}
	if len(s.Scenarios) == 1 && s.Scenarios[0] == "all" {
		s.Scenarios = nil // not [:0]: the caller's slice must keep its "all"
		for _, sc := range terrain.Scenarios() {
			s.Scenarios = append(s.Scenarios, sc.Name)
		}
	}
	if s.CheckpointEvery <= 0 {
		s.CheckpointEvery = 256
	}
	if !s.Prior.Disabled {
		if s.Prior.RoadRadius <= 0 {
			s.Prior.RoadRadius = maxInt(2, s.Window/4)
		}
		if s.Prior.StreamRadius <= 0 {
			s.Prior.StreamRadius = maxInt(2, s.Window/4)
		}
	}
	if s.RoadSpacing <= 0 {
		s.RoadSpacing = maxInt(48, minInt(s.Rows, s.Cols)/4)
	}
	if s.StreamThreshold <= 0 {
		// Heuristic accumulation threshold that keeps channel density
		// roughly constant across raster sizes (DefaultConfig's 400 cells
		// at 512² scales to ~0.45·side).
		s.StreamThreshold = 0.45 * float64(minInt(s.Rows, s.Cols))
	}
	return s
}

// Validate checks a resolved spec against the serving configuration.
func (s Spec) Validate(precision string) error {
	if s.Rows < 64 || s.Cols < 64 {
		return fmt.Errorf("sweep: raster %dx%d too small (min 64 per side)", s.Rows, s.Cols)
	}
	if s.Rows > maxRasterSide || s.Cols > maxRasterSide {
		return fmt.Errorf("sweep: raster %dx%d too large (max %d per side)", s.Rows, s.Cols, maxRasterSide)
	}
	if s.Window < 8 || s.Window > s.Rows || s.Window > s.Cols {
		return fmt.Errorf("sweep: window %d invalid for %dx%d raster", s.Window, s.Rows, s.Cols)
	}
	if s.Stride < 1 || s.Stride > s.Window {
		return fmt.Errorf("sweep: stride %d invalid for window %d", s.Stride, s.Window)
	}
	if s.MinScore < 0 || s.MinScore >= 1 {
		return fmt.Errorf("sweep: min_score %v outside [0,1)", s.MinScore)
	}
	if _, err := s.scenarios(); err != nil {
		return err
	}
	if s.Precision != "" && precision != "" && s.Precision != precision {
		return fmt.Errorf("sweep: spec wants precision %q but the pool serves %q", s.Precision, precision)
	}
	return nil
}

// scenarios resolves the spec's scenario names, in order.
func (s Spec) scenarios() ([]terrain.Scenario, error) {
	out := make([]terrain.Scenario, len(s.Scenarios))
	for i, name := range s.Scenarios {
		sc, err := terrain.ScenarioByName(name)
		if err != nil {
			return nil, err
		}
		out[i] = sc
	}
	return out, nil
}

// terrainConfig derives the generator config for one scenario of the
// sweep: spec geometry and seed over the default watershed character,
// with the scenario's terrain regime folded in.
func (s Spec) terrainConfig(sc terrain.Scenario) terrain.Config {
	cfg := terrain.DefaultConfig()
	cfg.Rows, cfg.Cols = s.Rows, s.Cols
	cfg.Seed = s.Seed
	cfg.RoadSpacing = s.RoadSpacing
	cfg.StreamThreshold = s.StreamThreshold
	return sc.Apply(cfg)
}

// Hit is one swept drainage-crossing detection in raster coordinates.
type Hit struct {
	Scenario string  `json:"scenario"`
	Row      int     `json:"row"`
	Col      int     `json:"col"`
	Score    float64 `json:"score"`
}

// ScenarioSummary is the per-scenario accounting the job summary reports:
// the candidate-prior's skip volume and the detection quality versus the
// generator's ground-truth crossings.
type ScenarioSummary struct {
	Scenario   string  `json:"scenario"`
	Windows    int     `json:"windows"`
	Candidates int     `json:"candidates"`
	Skipped    int     `json:"skipped"`
	Hits       int     `json:"hits"`
	Truth      int     `json:"truth"`
	AP         float64 `json:"ap"`
	Recall     float64 `json:"recall"`
	Precision  float64 `json:"precision"`
	// Exited counts the scenario's inferred clips answered by the serving
	// pool's early-exit head; ExitRate is Exited/inferred for the
	// scenario. Both stay 0 when the pool serves without dynamic
	// inference.
	Exited   int     `json:"exited,omitempty"`
	ExitRate float64 `json:"exit_rate,omitempty"`
}

// Job states reported by Status.State.
const (
	StateRunning  = "running"
	StateDone     = "done"
	StateCanceled = "canceled"
	StateFailed   = "failed"
)

// Status is a point-in-time snapshot of one sweep job — the
// GET /v1/sweep/{id} payload.
type Status struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// Phase is the current pipeline stage: generate, render, extract,
	// infer, merge, or "" once the job is finished.
	Phase string `json:"phase,omitempty"`
	// Scenario is the scenario currently sweeping.
	Scenario       string `json:"scenario,omitempty"`
	ScenariosDone  int    `json:"scenarios_done"`
	ScenariosTotal int    `json:"scenarios_total"`
	// Windows counts every slid window so far; Candidates survived the
	// prior, Skipped did not, Inferred have been through the model.
	Windows    int `json:"windows"`
	Candidates int `json:"candidates"`
	Skipped    int `json:"skipped"`
	Inferred   int `json:"inferred"`
	// Hits is the number of merged crossings available from the results
	// endpoint so far.
	Hits int `json:"hits"`
	// Exited counts inferred clips the pool's early-exit head answered;
	// ExitRate is Exited/Inferred. MaskRate echoes the pool's cumulative
	// masked-band rate. All stay 0 without dynamic inference.
	Exited   int     `json:"exited,omitempty"`
	ExitRate float64 `json:"exit_rate,omitempty"`
	MaskRate float64 `json:"mask_rate,omitempty"`
	// SkipRate is Skipped/Windows — the fraction of the raster the prior
	// kept away from the model.
	SkipRate float64 `json:"skip_rate"`
	// ClipsPerSec is the inference throughput since this process picked
	// the job up.
	ClipsPerSec float64 `json:"clips_per_sec"`
	// Checkpointed reports whether the job survives a restart.
	Checkpointed bool   `json:"checkpointed"`
	Error        string `json:"error,omitempty"`
	// PerScenario carries one summary per completed scenario.
	PerScenario []ScenarioSummary `json:"per_scenario,omitempty"`
}

// window is one sliding-window origin.
type window struct{ r0, c0 int }

// enumerateWindows slides the spec's window over the raster. Unlike
// model.Scan it clamps a final row/column of windows to the raster edge,
// so tail cells narrower than the stride still get covered.
func enumerateWindows(rows, cols int, spec Spec) []window {
	var wins []window
	rs := axisStops(rows-spec.Window, spec.Stride)
	cs := axisStops(cols-spec.Window, spec.Stride)
	for _, r0 := range rs {
		for _, c0 := range cs {
			wins = append(wins, window{r0, c0})
		}
	}
	return wins
}

// axisStops returns the window origins along one axis: 0, stride, ...,
// plus the clamped final origin `end` when the stride does not land on it.
func axisStops(end, stride int) []int {
	var stops []int
	last := -1
	for v := 0; v <= end; v += stride {
		stops = append(stops, v)
		last = v
	}
	if last != end {
		stops = append(stops, end)
	}
	return stops
}

// candidateWindows partitions the enumerated windows by the hydro prior:
// a window is a candidate iff it overlaps a cell that is within
// RoadRadius of a road AND StreamRadius of a stream — the only geometry
// that can host a culvert. The mask test is O(1) per window via a
// summed-area table.
func candidateWindows(w *terrain.Watershed, spec Spec) (cands []window, total int) {
	wins := enumerateWindows(w.Cfg.Rows, w.Cfg.Cols, spec)
	if spec.Prior.Disabled {
		return wins, len(wins)
	}
	rows, cols := w.Cfg.Rows, w.Cfg.Cols
	near := hydro.Dilate(w.RoadMask, rows, cols, spec.Prior.RoadRadius)
	stream := hydro.Dilate(w.StreamMask, rows, cols, spec.Prior.StreamRadius)
	for i := range near {
		near[i] = near[i] && stream[i]
	}
	sat := integral(near, rows, cols)
	for _, wd := range wins {
		if sat.sum(wd.r0, wd.c0, spec.Window, spec.Window) > 0 {
			cands = append(cands, wd)
		}
	}
	return cands, len(wins)
}

// sat is a summed-area table over a boolean mask, (rows+1)×(cols+1).
type sat struct {
	cols int
	v    []int32
}

func integral(mask []bool, rows, cols int) sat {
	s := sat{cols: cols, v: make([]int32, (rows+1)*(cols+1))}
	w := cols + 1
	for r := 0; r < rows; r++ {
		var run int32
		for c := 0; c < cols; c++ {
			if mask[r*cols+c] {
				run++
			}
			s.v[(r+1)*w+c+1] = s.v[r*w+c+1] + run
		}
	}
	return s
}

// sum returns the count of set cells in the h×w rectangle at (r0, c0).
func (s sat) sum(r0, c0, h, w int) int32 {
	W := s.cols + 1
	return s.v[(r0+h)*W+c0+w] - s.v[r0*W+c0+w] - s.v[(r0+h)*W+c0] + s.v[r0*W+c0]
}

// scoreScenario computes the per-scenario summary: greedy score-ranked
// matching of merged hits against ground-truth crossings within
// MatchRadius, with AP as the mean of precision at each true-positive
// rank (the paper's Equation 1 applied to point detections).
func scoreScenario(name string, hits []Hit, truth []hydro.Point, windows, candidates int, radius int) ScenarioSummary {
	sum := ScenarioSummary{
		Scenario:   name,
		Windows:    windows,
		Candidates: candidates,
		Skipped:    windows - candidates,
		Hits:       len(hits),
		Truth:      len(truth),
	}
	if len(truth) == 0 || len(hits) == 0 {
		return sum
	}
	ranked := append([]Hit(nil), hits...)
	sort.SliceStable(ranked, func(i, j int) bool { return ranked[i].Score > ranked[j].Score })
	matched := make([]bool, len(truth))
	r2 := radius * radius
	tp := 0
	var apSum float64
	for k, h := range ranked {
		hit := -1
		best := r2 + 1
		for t, gt := range truth {
			if matched[t] {
				continue
			}
			dr, dc := h.Row-gt.R, h.Col-gt.C
			if d := dr*dr + dc*dc; d <= r2 && d < best {
				best, hit = d, t
			}
		}
		if hit >= 0 {
			matched[hit] = true
			tp++
			apSum += float64(tp) / float64(k+1)
		}
	}
	sum.AP = apSum / float64(len(truth))
	sum.Recall = float64(tp) / float64(len(truth))
	sum.Precision = float64(tp) / float64(len(ranked))
	return sum
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
