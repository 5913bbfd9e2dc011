package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"drainnet/internal/metrics"
)

// clients is the number of closed-loop callers, one per CPU of the box
// the bounds were sized on; each sends its next request after the reply.
const clients = 2

// workload is one traffic mix and the server configuration it runs on.
type workload struct {
	name string
	// args are the drainnet-serve flags after -ckpt.
	args []string
	// static marks the fp32 static server, whose every answer is checked
	// bit for bit against the reference forward pass.
	static bool
	// clipsPerRequest is 1 for /v1/detect, >1 for /v1/detect/batch, and
	// 0 for a sweep workload.
	clipsPerRequest int
	// sweeps are the job specs a sweep workload cycles through; -seed
	// picks where the cycle starts.
	sweeps []sweepSpec
}

// sweepSpec is the POST /v1/sweep body.
type sweepSpec struct {
	Rows      int      `json:"rows"`
	Cols      int      `json:"cols"`
	Seed      int64    `json:"seed"`
	Stride    int      `json:"stride,omitempty"`
	Scenarios []string `json:"scenarios"`
	Prior     struct {
		Disabled bool `json:"disabled,omitempty"`
	} `json:"prior"`
	RoadSpacing     int     `json:"road_spacing,omitempty"`
	StreamThreshold float64 `json:"stream_threshold,omitempty"`
}

var staticArgs = []string{"-max-batch", "16", "-queue", "256"}

func denseSpec(seed int64, scenario string) sweepSpec {
	s := sweepSpec{Rows: 512, Cols: 512, Seed: seed, Stride: 10, Scenarios: []string{scenario}}
	s.Prior.Disabled = true
	return s
}

// priorSpec is the survey configuration (default stride, prior on, every
// scenario) on a quarter of the 1024² survey raster, with the road
// spacing and stream threshold a 1024² spec defaults to, so that the
// prior skips the same share of windows (about 60%) as on the full one.
func priorSpec(seed int64) sweepSpec {
	return sweepSpec{Rows: 512, Cols: 512, Seed: seed, RoadSpacing: 256, StreamThreshold: 460.8, Scenarios: []string{
		"baseline", "leaf_off", "green_up", "noisy_sensor", "cloud_shadow", "flat_plain", "incised_hills"}}
}

// workloads are the four traffic mixes, in the order BENCHMARK.json
// lists them. README.md says why each is there.
var workloads = []workload{
	{name: "detect_single", args: staticArgs, static: true, clipsPerRequest: 1},
	{name: "detect_batch16", args: staticArgs, static: true, clipsPerRequest: 16},
	{name: "sweep_dense", args: staticArgs, static: true, sweeps: []sweepSpec{
		denseSpec(11, "baseline"), denseSpec(12, "leaf_off"),
		denseSpec(13, "noisy_sensor"), denseSpec(14, "cloud_shadow")}},
	{name: "sweep_prior",
		args:   append([]string{"-dynamic", "-precision", "auto", "-quant-max-ap-drop", "0.05"}, staticArgs...),
		sweeps: []sweepSpec{priorSpec(21), priorSpec(22)}},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// phase is what one driven phase of a workload measured.
type phase struct {
	wall       time.Duration
	latencyMs  []float64 // one per completed operation (request or job)
	attempted  int       // operations sent
	failed     int       // failed, refused, timed out or wrongly answered
	firstError string
	mistake    map[string]int // kind of failure → count
	clips      int            // clips the model answered
	ap         float64        // served_ap
	// Diagnostics, one entry per second of the phase.
	clipsPerSecond []int
	hostRefMs      []float64
	// Sweep workloads only: the final status of every verified job, and
	// how long the poller saw jobs in each pipeline stage.
	jobs   []jobStatus
	phaseS map[string]float64
}

func (p *phase) fail(kind string, err error) {
	p.failed++
	if p.mistake == nil {
		p.mistake = map[string]int{}
	}
	p.mistake[kind]++
	if p.firstError == "" {
		p.firstError = kind + ": " + err.Error()
	}
}

// Failure kinds. Every one of them counts against error_share.
const (
	failTransport = "transport" // refused connection, reset, timeout
	failStatus    = "status"    // any reply that is not the success status
	failVerify    = "verify"    // a reply whose content is wrong
)

// hostRefSpin is a fixed single-thread multiply-add chain, about 2 ms
// on the box the bounds were sized on. Its duration, sampled once a
// second, shows when the host slowed down under a run.
func hostRefSpin() time.Duration {
	start := time.Now()
	x := 1.0
	for i := 0; i < 1<<21; i++ {
		x = x*0.999999 + 1e-6
	}
	hostRefSink = x
	return time.Since(start)
}

var hostRefSink float64

// sampleSeconds records into p, once a second, how many clips were
// finished in that second and how long the reference spin took, until
// the returned function is called; it returns once sampling has ended.
func sampleSeconds(progress *atomic.Int64, p *phase) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		last := progress.Load()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				now := progress.Load()
				p.clipsPerSecond = append(p.clipsPerSecond, int(now-last))
				last = now
				p.hostRefMs = append(p.hostRefMs, float64(hostRefSpin())/float64(time.Millisecond))
			}
		}
	}()
	return func() { close(quit); <-done }
}

// hitJSON is the part of the /v1 Hit schema a clip endpoint fills.
type hitJSON struct {
	Score     float64      `json:"score"`
	HasObject bool         `json:"has_object"`
	Box       *metrics.Box `json:"box"`
}

// checkHit compares one served hit with the reference detection, bit
// for bit.
func checkHit(got *hitJSON, want metrics.Detection) error {
	if got == nil || got.Box == nil {
		return errors.New("reply has no result or box")
	}
	if got.Score != want.Score || *got.Box != want.Box || got.HasObject != (want.Score >= serveThreshold) {
		return fmt.Errorf("served %+v box %+v, reference score %v box %+v", *got, *got.Box, want.Score, want.Box)
	}
	return nil
}

// detectTraffic is the pre-encoded request stream of a detect workload:
// the pool in a -seed order, cut into requests of clipsPerRequest clips.
type detectTraffic struct {
	pool   *clipPool
	path   string
	bodies [][]byte
	clips  [][]int // pool indices carried by each body
}

func newDetectTraffic(pool *clipPool, clipsPerRequest int, seed int64) *detectTraffic {
	order := rand.New(rand.NewSource(seed)).Perm(len(pool.samples))
	t := &detectTraffic{pool: pool, path: "/v1/detect"}
	if clipsPerRequest > 1 {
		t.path = "/v1/detect/batch"
	}
	for lo := 0; lo+clipsPerRequest <= len(order); lo += clipsPerRequest {
		idx := order[lo : lo+clipsPerRequest]
		body := pool.bodies[idx[0]]
		if clipsPerRequest > 1 {
			items := make([][]byte, len(idx))
			for i, k := range idx {
				items[i] = pool.bodies[k]
			}
			body = append(append([]byte(`{"items":[`), bytes.Join(items, []byte(","))...), "]}"...)
		}
		t.bodies = append(t.bodies, body)
		t.clips = append(t.clips, idx)
	}
	return t
}

// decode parses the reply to request k into one hit per clip.
func (t *detectTraffic) decode(k int, body []byte) ([]*hitJSON, error) {
	if t.path == "/v1/detect" {
		var h hitJSON
		if err := json.Unmarshal(body, &h); err != nil {
			return nil, err
		}
		return []*hitJSON{&h}, nil
	}
	var br struct {
		Items []struct {
			Result *hitJSON `json:"result"`
		} `json:"items"`
	}
	if err := json.Unmarshal(body, &br); err != nil {
		return nil, err
	}
	if len(br.Items) != len(t.clips[k]) {
		return nil, fmt.Errorf("reply carries %d items, request had %d", len(br.Items), len(t.clips[k]))
	}
	hits := make([]*hitJSON, len(br.Items))
	for i := range br.Items {
		hits[i] = br.Items[i].Result
	}
	return hits, nil
}

// requestTimeout is how long a client waits for one reply before the
// operation counts as failed.
const requestTimeout = 30 * time.Second

func newClient(timeout time.Duration) *http.Client {
	return &http.Client{
		Timeout:   timeout,
		Transport: &http.Transport{MaxIdleConnsPerHost: clients, DisableCompression: true},
	}
}

// driveDetect runs the closed loop for d: each client posts the next
// request of the stream, reads the whole reply, checks it, and goes on.
func driveDetect(client *http.Client, base string, t *detectTraffic, d time.Duration) *phase {
	p := &phase{}
	served := make([]metrics.Detection, len(t.pool.samples))
	seen := make([]bool, len(t.pool.samples))
	var next, progress atomic.Int64
	var mu sync.Mutex // guards p, served, seen
	stopSampling := sampleSeconds(&progress, p)

	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				k := int(next.Add(1)-1) % len(t.bodies)
				sent := time.Now()
				body, err := getBody(client, http.MethodPost, base+t.path, t.bodies[k], http.StatusOK)
				lat := time.Since(sent)
				kind := ""
				var hits []*hitJSON
				switch {
				case err != nil && body == nil:
					kind = failTransport
				case err != nil:
					kind = failStatus
				default:
					if hits, err = t.decode(k, body); err != nil {
						kind = failVerify
					}
					for i := 0; err == nil && i < len(hits); i++ {
						if err = checkHit(hits[i], t.pool.want[t.clips[k][i]]); err != nil {
							kind = failVerify
						}
					}
				}
				mu.Lock()
				p.attempted++
				if kind != "" {
					p.fail(kind, err)
				} else {
					p.latencyMs = append(p.latencyMs, float64(lat)/float64(time.Millisecond))
					p.clips += len(hits)
					for i, h := range hits {
						j := t.clips[k][i]
						served[j], seen[j] = metrics.Detection{Score: h.Score, Box: *h.Box}, true
					}
				}
				mu.Unlock()
				if kind == "" {
					progress.Add(int64(len(hits)))
				}
			}
		}()
	}
	wg.Wait()
	p.wall = time.Since(start)
	stopSampling()

	// AP of what was served, over the clips that were answered; a clip
	// never answered scores as a miss.
	for j := range served {
		if !seen[j] {
			served[j] = metrics.Detection{}
		}
	}
	p.ap = t.pool.ap(served)
	return p
}

// jobStatus is the part of GET /v1/sweep/{id} the harness reads.
type jobStatus struct {
	ID          string  `json:"id"`
	State       string  `json:"state"`
	Phase       string  `json:"phase"`
	Windows     int     `json:"windows"`
	Candidates  int     `json:"candidates"`
	Skipped     int     `json:"skipped"`
	Inferred    int     `json:"inferred"`
	Exited      int     `json:"exited"`
	MaskRate    float64 `json:"mask_rate"`
	Error       string  `json:"error"`
	PerScenario []struct {
		Scenario string  `json:"scenario"`
		AP       float64 `json:"ap"`
	} `json:"per_scenario"`
}

func (j jobStatus) meanAP() float64 {
	if len(j.PerScenario) == 0 {
		return 0
	}
	var s float64
	for _, sc := range j.PerScenario {
		s += sc.AP
	}
	return s / float64(len(j.PerScenario))
}

// sweepHit is one entry of GET /v1/sweep/{id}/results.
type sweepHit struct {
	Scenario string `json:"scenario"`
	Point    struct {
		Row int `json:"row"`
		Col int `json:"col"`
	} `json:"point"`
}

// hitsDigest hashes a job's merged hit list: scenario and raster cell
// of every hit, in the order the server lists them. Scores are left
// out, so a change in float rounding that moves no hit keeps the digest.
func hitsDigest(hits []sweepHit) string {
	h := sha256.New()
	for _, x := range hits {
		fmt.Fprintf(h, "%s %d %d\n", x.Scenario, x.Point.Row, x.Point.Col)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func fetchHits(client *http.Client, base, id string) ([]sweepHit, error) {
	var all []sweepHit
	for cursor := 0; cursor >= 0; {
		body, err := getBody(client, http.MethodGet,
			fmt.Sprintf("%s/v1/sweep/%s/results?cursor=%d&limit=1000", base, id, cursor), nil, http.StatusOK)
		if err != nil {
			return nil, err
		}
		var page struct {
			Items      []sweepHit `json:"items"`
			NextCursor *int       `json:"next_cursor"`
		}
		if err := json.Unmarshal(body, &page); err != nil {
			return nil, err
		}
		all = append(all, page.Items...)
		cursor = -1
		if page.NextCursor != nil {
			cursor = *page.NextCursor
		}
	}
	return all, nil
}

// checkJob verifies a finished job against its pin.
func checkJob(st jobStatus, pin sweepPin, digest string) error {
	if st.State != "done" {
		return fmt.Errorf("job %s ended %q (%s)", st.ID, st.State, st.Error)
	}
	if st.Windows != pin.Windows || st.Candidates != pin.Candidates || st.Inferred != pin.Inferred {
		return fmt.Errorf("job %s counted windows/candidates/inferred %d/%d/%d, pinned %d/%d/%d",
			st.ID, st.Windows, st.Candidates, st.Inferred, pin.Windows, pin.Candidates, pin.Inferred)
	}
	if pin.HitsSHA256 != "" && digest != pin.HitsSHA256 {
		return fmt.Errorf("job %s hit list digest %s, pinned %s", st.ID, digest, pin.HitsSHA256)
	}
	return nil
}

// driveSweeps posts jobs one after the other, starting at spec `first`
// of the workload's cycle, until d has passed and at least minJobs have
// been posted; the job running at that moment is allowed to finish and
// counts. With minJobs = len(w.sweeps) every spec is swept however slow
// the host is, so served_ap is always the mean over the same specs. The
// job's state is polled every `poll`; a job's latency is POST → first
// poll that sees it ended.
func driveSweeps(client *http.Client, base string, w workload, pinned []sweepPin, first, minJobs int, d, poll time.Duration) *phase {
	p := &phase{phaseS: map[string]float64{}}
	var progress atomic.Int64
	stopSampling := sampleSeconds(&progress, p)

	start := time.Now()
	apBySpec := map[int]float64{}
	for n := 0; time.Since(start) < d || n < minJobs; n++ {
		k := (first + n) % len(w.sweeps)
		spec := w.sweeps[k]
		body, _ := json.Marshal(spec) // a struct of ints and strings cannot fail
		p.attempted++
		done := int64(p.clips)
		sent := time.Now()
		reply, err := getBody(client, http.MethodPost, base+"/v1/sweep", body, http.StatusAccepted)
		if err != nil {
			if reply == nil {
				p.fail(failTransport, err)
			} else {
				p.fail(failStatus, err)
			}
			continue
		}
		var st jobStatus
		if err := json.Unmarshal(reply, &st); err != nil || st.ID == "" {
			p.fail(failVerify, fmt.Errorf("POST /v1/sweep reply %.100s: %v", reply, err))
			continue
		}
		seenAt := sent
		for st.State == "running" {
			time.Sleep(poll)
			reply, err = getBody(client, http.MethodGet, base+"/v1/sweep/"+st.ID, nil, http.StatusOK)
			if err == nil {
				err = json.Unmarshal(reply, &st)
			}
			if err != nil {
				break
			}
			now := time.Now()
			if st.Phase != "" {
				p.phaseS[st.Phase] += now.Sub(seenAt).Seconds()
			}
			seenAt = now
			progress.Store(done + int64(st.Inferred))
		}
		lat := time.Since(sent)
		if err != nil {
			p.fail(failTransport, err)
			continue
		}
		digest := ""
		if w.static && st.State == "done" {
			hits, err := fetchHits(client, base, st.ID)
			if err != nil {
				p.fail(failTransport, err)
				continue
			}
			digest = hitsDigest(hits)
		}
		if err := checkJob(st, pinned[k], digest); err != nil {
			p.fail(failVerify, err)
			continue
		}
		p.latencyMs = append(p.latencyMs, float64(lat)/float64(time.Millisecond))
		p.clips += st.Inferred
		p.jobs = append(p.jobs, st)
		apBySpec[k] = st.meanAP()
	}
	p.wall = time.Since(start)
	stopSampling()
	// Mean over the distinct specs swept, not over jobs: a run that gets
	// through the cycle a non-whole number of times scores every spec
	// once. Summed in spec order, so that the same specs always give the
	// same bits.
	for k := range w.sweeps {
		if ap, ok := apBySpec[k]; ok {
			p.ap += ap / float64(len(apBySpec))
		}
	}
	return p
}
