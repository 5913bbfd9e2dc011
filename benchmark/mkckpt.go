package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"drainnet/internal/experiments"
	"drainnet/internal/metrics"
	"drainnet/internal/model"
	"drainnet/internal/nn"
	"drainnet/internal/sweep"
	"drainnet/internal/tensor"
	"drainnet/internal/terrain"
	"drainnet/internal/train"
)

// trainTerrainSeed seeds the 1024² watershed the bench model trains on.
const trainTerrainSeed = 4242

// trainClipConfig is how clips are cut for training and for the
// held-out pool. The crossing lands up to ±6 cells (15% of the window)
// off centre: twice drainnet-serve's quick-start jitter, so the model
// also finds crossings in a sweep's windows, and the most this ÷16 net
// localises to IoU 0.4 (at ±10 cells its AP halves, see README.md).
func trainClipConfig() terrain.ClipConfig {
	cc := terrain.DefaultClipConfig()
	cc.Size = experiments.TinyData().ClipSize
	cc.JitterFrac = 0.15
	cc.ClipsPerCrossing = 6
	return cc
}

// makeCheckpoint trains the bench model from fixed seeds, writes
// testdata/bench.ckpt, and pins its digest and every sweep spec's
// expected outcome in pins.json. It takes about ten minutes.
func makeCheckpoint(benchDir string) error {
	dc := experiments.TinyData()
	tc := terrain.DefaultConfig()
	tc.Rows, tc.Cols = 1024, 1024
	tc.RoadSpacing, tc.StreamThreshold = dc.RoadSpacing, dc.StreamThreshold
	tc.Seed = trainTerrainSeed
	w, err := terrain.Generate(tc)
	if err != nil {
		return err
	}
	ds, err := terrain.BuildDataset(w, terrain.Render(w), trainClipConfig())
	if err != nil {
		return err
	}
	trainDS, testDS := ds.SplitByCrossing(0.8, dc.SplitSeed)
	net, err := benchConfig().Build(rand.New(rand.NewSource(dc.NetSeed)))
	if err != nil {
		return err
	}
	opt := train.PaperOptions()
	opt.Epochs, opt.BatchSize = 80, dc.BatchSize
	opt.LR, opt.BoxWeight = 0.01, 10
	opt.LRStepEpoch, opt.LRStepGamma = opt.Epochs*2/3, 0.1
	fmt.Printf("training %s (widths ÷%d) on %d clips of %d crossings, %d epochs\n",
		benchConfig().Name, dc.WidthScale, len(trainDS.Samples), len(w.Crossings), opt.Epochs)
	start := time.Now()
	if _, err := train.Fit(net, trainDS, opt); err != nil {
		return err
	}
	fmt.Printf("trained in %v: AP@%.1f %.4f on the held-out crossings of the training watershed\n",
		time.Since(start).Round(time.Second), apIoU, train.Evaluate(net, testDS, apIoU).AP)
	if err := os.MkdirAll(filepath.Dir(ckptPath(benchDir)), 0o755); err != nil {
		return err
	}
	if err := train.SaveFile(ckptPath(benchDir), net); err != nil {
		return err
	}
	return writePins(benchDir)
}

// writePins recomputes pins.json from the checkpoint on disk.
func writePins(benchDir string) error {
	sum, err := fileSHA256(ckptPath(benchDir))
	if err != nil {
		return err
	}
	p := &pins{CkptSHA256: sum, Sweeps: map[string][]sweepPin{}}
	net, err := loadBenchNet(benchDir, p)
	if err != nil {
		return err
	}
	pool, err := buildPool(net)
	if err != nil {
		return err
	}
	fmt.Printf("held-out pool: %d clips, AP@%.1f %.4f\n", len(pool.samples), apIoU, pool.ap(pool.want))
	for _, w := range workloads {
		for _, spec := range w.sweeps {
			pin, ap, err := referenceSweep(net, spec, w.static)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, spec.Seed, err)
			}
			fmt.Printf("%s seed %d: %d windows, %d candidates, reference AP %.4f\n", w.name, spec.Seed, pin.Windows, pin.Candidates, ap)
			p.Sweeps[w.name] = append(p.Sweeps[w.name], pin)
		}
	}
	return os.WriteFile(pinsPath(benchDir), append(marshalIndent(p), '\n'), 0o644)
}

// referenceSubmitter answers with the reference forward pass, one clip
// at a time.
type referenceSubmitter struct {
	mu  sync.Mutex // Forward keeps per-layer caches
	net *nn.Sequential
}

func (r *referenceSubmitter) Submit(_ context.Context, x *tensor.Tensor) (metrics.Detection, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return model.Detect(r.net, x)[0], nil
}

// referenceSweep runs spec in this process, without the HTTP server or
// the batcher. The window counts depend on the spec alone; the hit list
// is computed (with model.Detect) only where the server is static and
// must reproduce it.
func referenceSweep(net *nn.Sequential, spec sweepSpec, static bool) (sweepPin, float64, error) {
	var submit sweep.Submitter = instantSubmitter{}
	if static {
		submit = &referenceSubmitter{net: net}
	}
	cfg := benchConfig()
	mgr, err := sweep.NewManager(sweep.ManagerOptions{Submit: submit, Bands: cfg.InBands, DefaultWindow: cfg.InSize})
	if err != nil {
		return sweepPin{}, 0, err
	}
	defer mgr.Close()
	// Through JSON, so the spec is read exactly as POST /v1/sweep reads it.
	var s sweep.Spec
	buf, _ := json.Marshal(spec)
	if err := json.Unmarshal(buf, &s); err != nil {
		return sweepPin{}, 0, err
	}
	job, err := mgr.Start(s)
	if err != nil {
		return sweepPin{}, 0, err
	}
	<-job.Done()
	st := job.Status()
	if st.State != sweep.StateDone {
		return sweepPin{}, 0, fmt.Errorf("reference sweep ended %q: %s", st.State, st.Error)
	}
	pin := sweepPin{TerrainSeed: spec.Seed, Windows: st.Windows, Candidates: st.Candidates, Inferred: st.Inferred}
	var ap float64
	if static {
		hits, _ := job.Results(0, 0)
		listed := make([]sweepHit, len(hits))
		for i, h := range hits {
			listed[i].Scenario = h.Scenario
			listed[i].Point.Row, listed[i].Point.Col = h.Row, h.Col
		}
		pin.HitsSHA256 = hitsDigest(listed)
		for _, sc := range st.PerScenario {
			ap += sc.AP / float64(len(st.PerScenario))
		}
	}
	return pin, ap, nil
}
