package sweep

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"drainnet/internal/hydro"
	"drainnet/internal/metrics"
	"drainnet/internal/model"
	"drainnet/internal/serve/batcher"
	"drainnet/internal/telemetry"
	"drainnet/internal/tensor"
	"drainnet/internal/terrain"
)

// Submitter is the inference backend a sweep streams clips through.
// *batcher.Pool satisfies it; tests substitute deterministic stubs.
//
// x belongs to the caller again once Submit returns a nil error: the
// sweep cuts a later window into the same storage, so an implementation
// must be done reading x by then (the pool is — a replica has copied the
// clip into its batch before the detection comes back). After an error
// the implementation may still hold x — a cancelled or draining pool
// returns before its replica does — and the sweep never touches that
// tensor again.
//
// A backend that also has the pool's SubmitAll, Options and Retune
// methods (unitSubmitter) is handed a batch of windows at a time; any
// other is asked clip by clip, through the same code (oneByOne).
type Submitter interface {
	Submit(ctx context.Context, x *tensor.Tensor) (metrics.Detection, error)
}

// unitSubmitter is the batch hand-off *batcher.Pool offers beside
// Submit. A sweep cuts its windows into units of the pool's effective
// max-batch (Retune(0), which /v1/control/batching moves; unit buffers
// are sized at the Options().MaxBatch ceiling), one full batch each, and
// the manager keeps at most Options().Replicas units in flight across
// all its jobs, one per replica: batches fill, and whatever else is
// submitted (an interactive /v1/detect clip) queues behind at most
// Replicas sweep batches, never behind a backlog of sweep clips.
// SubmitAll answers each clip as the pool does: a detection, or an
// error — ErrQueueFull for clips refused at the queue bound, which the
// sweep resubmits, and Abandoned set where the pool may still read X.
type unitSubmitter interface {
	SubmitAll(clips []batcher.Clip)
	Options() batcher.Options
	Retune(maxBatch int) int
}

// oneByOne adapts a Submitter without SubmitAll: it answers clip by
// clip, so the sweep hands it units of one window, inFlight at a time.
// NewManager uses clipsInFlight.
type oneByOne struct {
	Submitter
	inFlight int
}

// clipsInFlight is how many one-clip units a sweep keeps in flight on a
// one-method Submitter: the per-clip fan-out sweeps ran before they
// handed the pool batches.
const clipsInFlight = 16

func (o oneByOne) SubmitAll(clips []batcher.Clip) {
	for i := range clips {
		c := &clips[i]
		c.Det, c.Err = o.Submit(c.Ctx, c.X)
	}
}

func (o oneByOne) Options() batcher.Options {
	return batcher.Options{MaxBatch: 1, Replicas: o.inFlight}
}

func (oneByOne) Retune(int) int { return 1 }

// Cancellation causes distinguishing a user cancel (job ends in state
// canceled) from a graceful drain (job stays running in its checkpoint
// and resumes on the next start).
var (
	errCanceled = errors.New("sweep: job canceled")
	errDrain    = errors.New("sweep: server draining")
)

// ManagerOptions configures a job manager.
type ManagerOptions struct {
	// Submit is the serving pool clips flow through (required).
	Submit Submitter
	// Bands is the served model's input band count; sweeps render
	// terrain.NumBands-band imagery, so anything else refuses jobs.
	Bands int
	// DefaultWindow is the served model's training clip size — the
	// Spec.Window default.
	DefaultWindow int
	// Precision names the pool's serving precision; specs pinning a
	// different one are rejected ("" skips the check).
	Precision string
	// Dir is the checkpoint directory; "" disables persistence (jobs die
	// with the process).
	Dir string
	// Telemetry receives sweep throughput metrics (nil → disabled).
	Telemetry *telemetry.Telemetry
	// MaskRate, when the pool serves the dynamic path, reports the
	// cumulative masked-band rate (plan.Stats.Rate); job status echoes it
	// so a sweep's observer sees both dynamic savings in one place. Nil
	// reports 0.
	MaskRate func() float64
}

func (o ManagerOptions) withDefaults() ManagerOptions {
	if o.Telemetry == nil {
		o.Telemetry = telemetry.NewDisabled()
	}
	return o
}

// Manager owns sweep jobs: it starts them, serves status and paginated
// results, cancels, checkpoints through graceful drains, and resumes
// unfinished jobs from the checkpoint directory. Safe for concurrent use.
type Manager struct {
	opts ManagerOptions
	// units is opts.Submit as the unit hand-off the sweeps drive; slots
	// holds one token per unit in flight, across every job, up to the
	// backend's Replicas.
	units unitSubmitter
	slots chan struct{}

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string
	seq    int
	closed bool
	wg     sync.WaitGroup

	windows  *telemetry.CounterVec
	inferred *telemetry.Counter
	jobsBy   *telemetry.CounterVec
	active   *telemetry.Gauge
	exitRate *telemetry.GaugeVec
}

// NewManager creates a manager. Call Resume to pick up checkpointed jobs
// from a previous process, and Close before the pool it submits to.
func NewManager(opts ManagerOptions) (*Manager, error) {
	opts = opts.withDefaults()
	if opts.Submit == nil {
		return nil, errors.New("sweep: ManagerOptions.Submit is required")
	}
	if opts.Bands != 0 && opts.Bands != terrain.NumBands {
		return nil, fmt.Errorf("sweep: served model takes %d bands; sweeps render %d-band imagery", opts.Bands, terrain.NumBands)
	}
	if opts.DefaultWindow < 8 {
		return nil, fmt.Errorf("sweep: default window %d too small", opts.DefaultWindow)
	}
	units, ok := opts.Submit.(unitSubmitter)
	if !ok {
		units = oneByOne{opts.Submit, clipsInFlight}
	}
	reg := opts.Telemetry.Registry()
	m := &Manager{
		opts:  opts,
		units: units,
		slots: make(chan struct{}, units.Options().Replicas),
		jobs:  make(map[string]*Job),
		windows: reg.CounterVec("drainnet_sweep_windows_total",
			"Sweep windows enumerated, by prior outcome (candidate or skipped).", "result"),
		inferred: reg.Counter("drainnet_sweep_clips_inferred_total",
			"Candidate clips that went through the serving pool."),
		jobsBy: reg.CounterVec("drainnet_sweep_jobs_total",
			"Sweep jobs, by lifecycle event (started, resumed, done, canceled, failed).", "event"),
		active: reg.Gauge("drainnet_sweep_active_jobs",
			"Sweep jobs currently running."),
		exitRate: reg.GaugeVec("drainnet_sweep_exit_rate",
			"Fraction of a scenario's inferred clips answered by the early-exit head.",
			"scenario"),
	}
	return m, nil
}

// Start validates the spec, assigns a job ID, and launches the sweep.
func (m *Manager) Start(spec Spec) (*Job, error) {
	spec = spec.WithDefaults(m.opts.DefaultWindow)
	if err := spec.Validate(m.opts.Precision); err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, errors.New("sweep: manager closed")
	}
	id := m.nextIDLocked()
	j := newJob(m, id, spec)
	m.register(j)
	m.launchLocked(j, "started")
	return j, nil
}

// nextIDLocked allocates a job ID unique within this manager and its
// checkpoint directory.
func (m *Manager) nextIDLocked() string {
	for {
		m.seq++
		id := fmt.Sprintf("sw-%d-%03d", time.Now().Unix(), m.seq)
		if _, taken := m.jobs[id]; !taken && !checkpointExists(m.opts.Dir, id) {
			return id
		}
	}
}

func (m *Manager) register(j *Job) {
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
}

func (m *Manager) launchLocked(j *Job, event string) {
	m.jobsBy.With(event).Inc()
	m.active.Add(1)
	m.wg.Add(1)
	go j.run()
}

// Resume loads every checkpoint in the manager's directory: finished jobs
// register for status/results lookups, unfinished ones relaunch from
// their cursor. It returns the number of jobs relaunched.
func (m *Manager) Resume() (int, error) {
	if m.opts.Dir == "" {
		return 0, nil
	}
	cks, err := loadCheckpoints(m.opts.Dir)
	if err != nil {
		return 0, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	resumed := 0
	for _, ck := range cks {
		if m.closed {
			break
		}
		if _, taken := m.jobs[ck.ID]; taken {
			continue
		}
		j := jobFromCheckpoint(m, ck)
		m.register(j)
		if ck.State == StateRunning {
			m.launchLocked(j, "resumed")
			resumed++
		}
	}
	return resumed, nil
}

// Get returns a job by ID.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Jobs returns every known job in creation order.
func (m *Manager) Jobs() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Job, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.jobs[id])
	}
	return out
}

// Close drains the manager: running jobs checkpoint at their next chunk
// boundary and stop, still marked running so Resume picks them up. Close
// must precede the submitter pool's Close.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		m.wg.Wait()
		return
	}
	m.closed = true
	jobs := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		jobs = append(jobs, j)
	}
	m.mu.Unlock()
	for _, j := range jobs {
		j.cancel(errDrain)
	}
	m.wg.Wait()
}

// Job is one sweep in flight (or finished). All accessors are safe for
// concurrent use with the runner goroutine.
type Job struct {
	m    *Manager
	id   string
	spec Spec

	ctx    context.Context
	cancel context.CancelCauseFunc
	done   chan struct{}

	mu          sync.Mutex
	state       string
	phase       string
	scenario    string
	scenarioIdx int
	cursor      int
	// counted is the highest scenario index whose window totals are
	// already in counters (-1 before the first), persisted so resumes
	// never double-count.
	counted  int
	counters Counters
	// scExited/scInferred are the running scenario's exit accounting,
	// reset at each scenario boundary and persisted so a mid-scenario
	// resume keeps the per-scenario exit rate exact.
	scExited   int
	scInferred int
	raw        []Hit
	hits       []Hit
	summaries  []ScenarioSummary
	errMsg     string

	// procStart/procInferred measure throughput since this process picked
	// the job up (resumes restart the clock, not the counters).
	procStart    time.Time
	procInferred atomic.Int64
}

// Counters is the cumulative window accounting a job checkpoint carries.
type Counters struct {
	Windows    int `json:"windows"`
	Candidates int `json:"candidates"`
	Skipped    int `json:"skipped"`
	Inferred   int `json:"inferred"`
	// Exited counts inferred clips whose detection came from the
	// serving pool's early-exit head (always 0 when dynamic inference
	// is off).
	Exited int `json:"exited"`
}

func newJob(m *Manager, id string, spec Spec) *Job {
	ctx, cancel := context.WithCancelCause(context.Background())
	return &Job{
		m: m, id: id, spec: spec,
		ctx: ctx, cancel: cancel, done: make(chan struct{}),
		state: StateRunning, counted: -1, procStart: time.Now(),
	}
}

func jobFromCheckpoint(m *Manager, ck *checkpoint) *Job {
	j := newJob(m, ck.ID, ck.Spec)
	j.state = ck.State
	j.errMsg = ck.Error
	j.scenarioIdx = ck.ScenarioIndex
	j.counted = ck.CountedScenario
	j.cursor = ck.Cursor
	j.counters = ck.Counters
	j.scExited = ck.ScenarioExited
	j.scInferred = ck.ScenarioInferred
	j.raw = ck.Raw
	j.hits = ck.Hits
	j.summaries = ck.Summaries
	if ck.State != StateRunning {
		close(j.done)
	}
	return j
}

// ID returns the job identifier.
func (j *Job) ID() string { return j.id }

// Spec returns the resolved job spec.
func (j *Job) Spec() Spec { return j.spec }

// Done is closed when the job reaches a terminal state (or pauses for a
// drain). Primarily for tests and the CLI.
func (j *Job) Done() <-chan struct{} { return j.done }

// Cancel stops the job; its checkpoint records state canceled so it does
// not resume. Canceling a finished job is a no-op.
func (j *Job) Cancel() { j.cancel(errCanceled) }

// Status snapshots the job.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:             j.id,
		State:          j.state,
		Phase:          j.phase,
		Scenario:       j.scenario,
		ScenariosDone:  len(j.summaries),
		ScenariosTotal: len(j.spec.Scenarios),
		Windows:        j.counters.Windows,
		Candidates:     j.counters.Candidates,
		Skipped:        j.counters.Skipped,
		Inferred:       j.counters.Inferred,
		Exited:         j.counters.Exited,
		Hits:           len(j.hits),
		Checkpointed:   j.m.opts.Dir != "",
		Error:          j.errMsg,
		PerScenario:    append([]ScenarioSummary(nil), j.summaries...),
	}
	if st.Windows > 0 {
		st.SkipRate = float64(st.Skipped) / float64(st.Windows)
	}
	if st.Inferred > 0 {
		st.ExitRate = float64(st.Exited) / float64(st.Inferred)
	}
	if f := j.m.opts.MaskRate; f != nil {
		st.MaskRate = f()
	}
	if n := j.procInferred.Load(); n > 0 {
		if dt := time.Since(j.procStart).Seconds(); dt > 0 {
			st.ClipsPerSec = float64(n) / dt
		}
	}
	return st
}

// Results returns one page of merged hits starting at cursor. next is
// the cursor of the following page, or -1 when this page is final (at
// the current hit count — a running job may still append).
func (j *Job) Results(cursor, limit int) (page []Hit, next int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if cursor < 0 {
		cursor = 0
	}
	if cursor > len(j.hits) {
		cursor = len(j.hits)
	}
	end := len(j.hits)
	if limit > 0 && cursor+limit < end {
		end = cursor + limit
	}
	page = append([]Hit(nil), j.hits[cursor:end]...)
	if end < len(j.hits) {
		return page, end
	}
	return page, -1
}

// run is the job goroutine: sweep scenario by scenario, checkpointing
// after every chunk, and settle the terminal (or drained) state.
func (j *Job) run() {
	defer j.m.wg.Done()
	defer close(j.done)
	defer j.m.active.Add(-1)
	err := j.sweep()
	j.mu.Lock()
	j.phase = ""
	j.scenario = ""
	switch {
	case err == nil:
		j.state = StateDone
		j.m.jobsBy.With(StateDone).Inc()
	case errors.Is(err, errDrain) || errors.Is(context.Cause(j.ctx), errDrain):
		// Stay running in the checkpoint; Resume continues the sweep.
	case errors.Is(err, errCanceled) || errors.Is(context.Cause(j.ctx), errCanceled):
		j.state = StateCanceled
		j.m.jobsBy.With(StateCanceled).Inc()
	default:
		j.state = StateFailed
		j.errMsg = err.Error()
		j.m.jobsBy.With(StateFailed).Inc()
	}
	j.saveLocked()
	j.mu.Unlock()
}

func (j *Job) setPhase(phase string) {
	j.mu.Lock()
	j.phase = phase
	j.mu.Unlock()
}

// scene is the one prepared scenario a job keeps between iterations: the
// watershed (masks and crossings only — a sweep never reads the DEMs) and
// its candidate windows. Consecutive scenarios that differ only in imaging
// conditions generate the same terrain.Config, so they share it and only
// re-perturb; a different config, or a resumed job, prepares afresh.
type scene struct {
	w     *terrain.Watershed
	cands []window
	total int
	// base is the watershed's unperturbed render while a later scenario
	// of the job still needs it, and work the image the scenarios before
	// the last perturb a copy of it in.
	base, work *tensor.Tensor
}

// prepare readies the scene for rest[0], the first of the job's remaining
// scenarios, and renders it, announcing each stage it actually runs
// through enter: generate and extract only when the previous scenario's
// config differs. The previous watershed is released before a different
// one is generated, so two are never live at once. A watershed is
// rendered once: while the next scenario shares the watershed, a scenario
// perturbs a copy of that render in the work image the previous one
// used, and the last perturbs the render itself, so a single-scenario
// job holds one image and a longer one two.
func (s *scene) prepare(spec Spec, rest []terrain.Scenario, enter func(phase string)) (*tensor.Tensor, error) {
	sc := rest[0]
	cfg := spec.terrainConfig(sc)
	reuse := s.w != nil && s.w.Cfg == cfg
	if !reuse {
		*s = scene{}
		enter("generate")
		w, err := terrain.Generate(cfg)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %w", sc.Name, err)
		}
		w.BaseDEM, w.DEM = nil, nil
		s.w = w
	}
	enter("render")
	if s.base == nil {
		s.base = terrain.Render(s.w)
	}
	img := s.base
	switch {
	case len(rest) == 1 || spec.terrainConfig(rest[1]) != cfg:
		s.base, s.work = nil, nil
	case s.work == nil:
		s.work = s.base.Clone()
		img = s.work
	default:
		s.work.CopyFrom(s.base)
		img = s.work
	}
	terrain.Perturb(img, s.w, sc)
	if !reuse {
		enter("extract")
		s.cands, s.total = candidateWindows(s.w, spec)
	}
	return img, nil
}

func (j *Job) sweep() error {
	scenarios, err := j.spec.scenarios()
	if err != nil {
		return err
	}
	var prep scene
	var units []*unit
	for si := j.scenarioIdx; si < len(scenarios); si++ {
		sc := scenarios[si]
		img, err := prep.prepare(j.spec, scenarios[si:], func(phase string) {
			j.mu.Lock()
			j.scenarioIdx = si
			j.scenario = sc.Name
			j.phase = phase
			j.mu.Unlock()
		})
		if err != nil {
			return err
		}
		w, cands, total := prep.w, prep.cands, prep.total

		j.mu.Lock()
		if j.counted < si {
			// The counted watermark (not cursor==0) gates the addition: a
			// drain can checkpoint after this point but before the first
			// chunk advances the cursor, and a mid-scenario resume must not
			// count the scenario's windows twice.
			j.counted = si
			j.counters.Windows += total
			j.counters.Candidates += len(cands)
			j.counters.Skipped += total - len(cands)
			j.m.windows.With("candidate").Add(uint64(len(cands)))
			j.m.windows.With("skipped").Add(uint64(total - len(cands)))
		}
		j.phase = "infer"
		cursor := j.cursor
		j.mu.Unlock()

		for lo := cursor; lo < len(cands); lo += j.spec.CheckpointEvery {
			hi := minInt(lo+j.spec.CheckpointEvery, len(cands))
			hits, exited, err := j.inferChunk(img, w.Cfg.Rows, w.Cfg.Cols, cands[lo:hi], &units)
			if err != nil {
				return err
			}
			j.mu.Lock()
			j.raw = append(j.raw, hits...)
			j.cursor = hi
			j.counters.Inferred += hi - lo
			j.counters.Exited += exited
			j.scExited += exited
			j.scInferred += hi - lo
			j.saveLocked()
			j.mu.Unlock()
			j.m.inferred.Add(uint64(hi - lo))
			j.procInferred.Add(int64(hi - lo))
		}

		j.setPhase("merge")
		j.mu.Lock()
		merged := mergeHits(sc.Name, j.raw, j.spec.MergeRadius)
		sum := scoreScenario(sc.Name, merged, w.Crossings, total, len(cands), j.spec.MatchRadius)
		sum.Exited = j.scExited
		if j.scInferred > 0 {
			sum.ExitRate = float64(j.scExited) / float64(j.scInferred)
		}
		j.m.exitRate.With(sc.Name).Set(sum.ExitRate)
		j.hits = append(j.hits, merged...)
		j.summaries = append(j.summaries, sum)
		j.raw = nil
		j.cursor = 0
		j.scExited, j.scInferred = 0, 0
		j.scenarioIdx = si + 1
		j.saveLocked()
		j.mu.Unlock()
	}
	return nil
}

// unit is one batch's worth of windows on its way through the pool:
// clips are views of one N×bands×W×W buffer, views their tensors, and
// slot maps each clip still to be answered to its window in the unit.
type unit struct {
	views   []*tensor.Tensor
	clips   []batcher.Clip
	slot    []int
	backoff *time.Timer // made on the first refusal, reused after
}

func newUnit(size, window int) *unit {
	buf := tensor.New(size, terrain.NumBands, window, window).Data()
	vol := terrain.NumBands * window * window
	u := &unit{views: make([]*tensor.Tensor, size), clips: make([]batcher.Clip, size), slot: make([]int, size)}
	for i := range u.views {
		u.views[i] = tensor.FromSlice(buf[i*vol:(i+1)*vol], 1, terrain.NumBands, window, window)
	}
	return u
}

// inferChunk runs one chunk of candidate windows through the pool in
// units of the pool's effective max-batch, each unit holding one of the
// manager's in-flight slots, and returns the confident raw hits in
// window order (deterministic regardless of completion order or unit
// size). Each worker owns one unit buffer, sized at the max-batch
// ceiling and kept in *units across the job's chunks; the first error
// stops the chunk and drops every buffer, since the pool may still hold
// an abandoned clip's pixels.
func (j *Job) inferChunk(img *tensor.Tensor, rows, cols int, wins []window, units *[]*unit) (hits []Hit, exited int, err error) {
	opts := j.m.units.Options()
	size := j.unitSize()
	workers := minInt(opts.Replicas, (len(wins)+size-1)/size)
	for len(*units) < workers {
		*units = append(*units, newUnit(opts.MaxBatch, j.spec.Window))
	}
	dets := make([]metrics.Detection, len(wins))
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for _, u := range (*units)[:workers] {
		go func() {
			defer wg.Done()
			for {
				// Read the cap per unit, so a retune takes effect at the
				// next unit cut.
				n := j.unitSize()
				hi := int(next.Add(int64(n)))
				lo := hi - n
				if lo >= len(wins) {
					return
				}
				hi = minInt(hi, len(wins))
				if err := j.runUnit(u, img, wins[lo:hi], dets[lo:hi]); err != nil {
					j.cancelChunk(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	// A failed unit cancelled the job's context, so its cause is the
	// chunk's error (or the drain or cancel that came first).
	if err := context.Cause(j.ctx); err != nil {
		*units = nil
		return nil, 0, err
	}
	for i, d := range dets {
		if d.Exited {
			exited++
		}
		if d.Score < j.spec.MinScore {
			continue
		}
		r := wins[i].r0 + int(d.Box.CY*float64(j.spec.Window))
		c := wins[i].c0 + int(d.Box.CX*float64(j.spec.Window))
		hits = append(hits, Hit{Row: minInt(r, rows-1), Col: minInt(c, cols-1), Score: d.Score})
	}
	return hits, exited, nil
}

// unitSize is the number of windows the next unit takes: the pool's
// effective max-batch, within the buffers' Options().MaxBatch ceiling.
func (j *Job) unitSize() int {
	return minInt(j.m.units.Retune(0), j.m.units.Options().MaxBatch)
}

// runUnit cuts wins into u's clips, takes one of the manager's in-flight
// slots, hands the clips to the pool as one unit and writes each answer
// to dets in window order. Clips refused with ErrQueueFull back off and
// go again, together, until every clip is answered — the sweep is the
// background producer and must yield to interactive traffic. Any other
// error ends the unit.
func (j *Job) runUnit(u *unit, img *tensor.Tensor, wins []window, dets []metrics.Detection) error {
	for i, w := range wins {
		terrain.ClipInto(u.views[i], img, w.r0, w.c0, j.spec.Window)
		u.clips[i] = batcher.Clip{Ctx: j.ctx, X: u.views[i]}
		u.slot[i] = i
	}
	pending := u.clips[:len(wins)]
	select {
	case j.m.slots <- struct{}{}:
		defer func() { <-j.m.slots }()
	case <-j.ctx.Done():
		return context.Cause(j.ctx)
	}
	for {
		j.m.units.SubmitAll(pending)
		left := 0
		for i, c := range pending {
			switch {
			case c.Err == nil:
				dets[u.slot[i]] = c.Det
			case errors.Is(c.Err, batcher.ErrQueueFull):
				pending[left] = batcher.Clip{Ctx: j.ctx, X: c.X}
				u.slot[left] = u.slot[i]
				left++
			default:
				return j.submitErr(c.Err)
			}
		}
		if left == 0 {
			return nil
		}
		pending = pending[:left]
		if u.backoff == nil {
			u.backoff = time.NewTimer(2 * time.Millisecond)
		} else {
			u.backoff.Reset(2 * time.Millisecond) // it fired and was drained below
		}
		select {
		case <-j.ctx.Done():
			u.backoff.Stop()
			return context.Cause(j.ctx)
		case <-u.backoff.C:
		}
	}
}

// submitErr names why a clip failed: the job's own cancel or drain when
// its context has ended, a drain when the pool is closing under it (so
// the checkpoint stays resumable), else the backend's error.
func (j *Job) submitErr(err error) error {
	if j.ctx.Err() != nil {
		return context.Cause(j.ctx)
	}
	if errors.Is(err, batcher.ErrClosed) {
		return errDrain
	}
	return err
}

// cancelChunk aborts the remaining units of a failed chunk without
// disturbing a drain/cancel cause already recorded on the context.
func (j *Job) cancelChunk(err error) {
	if context.Cause(j.ctx) == nil {
		j.cancel(err)
	}
}

// mergeHits non-maximum-suppresses raw hits and tags them with the
// scenario, keeping the score-descending order SuppressHits yields.
func mergeHits(scenario string, raw []Hit, radius int) []Hit {
	scan := make([]model.ScanHit, len(raw))
	for i, h := range raw {
		scan[i] = model.ScanHit{Point: hydro.Point{R: h.Row, C: h.Col}, Score: h.Score}
	}
	kept := model.SuppressHits(scan, radius)
	out := make([]Hit, len(kept))
	for i, h := range kept {
		out[i] = Hit{Scenario: scenario, Row: h.Point.R, Col: h.Point.C, Score: h.Score}
	}
	return out
}

// saveLocked checkpoints the job's current state; the caller holds j.mu.
// Persistence failures are recorded on the job rather than killing it —
// the sweep itself can still finish.
func (j *Job) saveLocked() {
	if j.m.opts.Dir == "" {
		return
	}
	ck := &checkpoint{
		Version:          checkpointVersion,
		ID:               j.id,
		Spec:             j.spec,
		State:            j.state,
		Error:            j.errMsg,
		ScenarioIndex:    j.scenarioIdx,
		CountedScenario:  j.counted,
		Cursor:           j.cursor,
		Counters:         j.counters,
		ScenarioExited:   j.scExited,
		ScenarioInferred: j.scInferred,
		Raw:              j.raw,
		Hits:             j.hits,
		Summaries:        j.summaries,
	}
	if err := ck.save(j.m.opts.Dir); err != nil && j.errMsg == "" {
		j.errMsg = fmt.Sprintf("checkpoint not saved: %v", err)
	}
}
