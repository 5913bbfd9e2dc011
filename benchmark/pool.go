package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"drainnet/internal/experiments"
	"drainnet/internal/metrics"
	"drainnet/internal/model"
	"drainnet/internal/nn"
	"drainnet/internal/terrain"
	"drainnet/internal/train"
)

// The bench model is the architecture drainnet-serve builds by default
// (SPP-Net #2, widths ÷16, 4×40×40 input), so -ckpt loads into it.
func benchConfig() model.Config {
	dc := experiments.TinyData()
	return model.SPPNet2().Scaled(dc.WidthScale).WithInput(terrain.NumBands, dc.ClipSize)
}

// serveThreshold is drainnet-serve's default -threshold, which decides
// has_object in its replies.
const serveThreshold = 0.7

// apIoU is the IoU at which served_ap is scored (the paper's Table 1).
const apIoU = 0.4

// poolSize is the number of labelled clips in the held-out pool, half
// of them positive.
const poolSize = 256

// poolTerrainSeed seeds the watershed the pool is clipped from. It is
// not one -mkckpt trains on, nor one the sweeps use.
const poolTerrainSeed = 90210

// pins are the values the harness refuses to run or verify without:
// the checkpoint's digest and what each sweep spec must produce.
type pins struct {
	CkptSHA256 string                `json:"ckpt_sha256"`
	Sweeps     map[string][]sweepPin `json:"sweeps"`
}

// sweepPin is the pinned outcome of one sweep spec: the window counts,
// which the server's configuration cannot change, and for a static
// server a digest of the merged hit list.
type sweepPin struct {
	TerrainSeed int64  `json:"terrain_seed"`
	Windows     int    `json:"windows"`
	Candidates  int    `json:"candidates"`
	Inferred    int    `json:"inferred"`
	HitsSHA256  string `json:"hits_sha256,omitempty"`
}

func ckptPath(benchDir string) string { return filepath.Join(benchDir, "testdata", "bench.ckpt") }
func pinsPath(benchDir string) string { return filepath.Join(benchDir, "pins.json") }

func loadPins(benchDir string) (*pins, error) {
	buf, err := os.ReadFile(pinsPath(benchDir))
	if err != nil {
		return nil, err
	}
	var p pins
	if err := json.Unmarshal(buf, &p); err != nil {
		return nil, fmt.Errorf("%s: %w", pinsPath(benchDir), err)
	}
	return &p, nil
}

func fileSHA256(path string) (string, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:]), nil
}

// loadBenchNet loads the committed checkpoint after checking it is the
// pinned one, so served_ap always scores the same model.
func loadBenchNet(benchDir string, p *pins) (*nn.Sequential, error) {
	got, err := fileSHA256(ckptPath(benchDir))
	if err != nil {
		return nil, err
	}
	if got != p.CkptSHA256 {
		return nil, fmt.Errorf("%s has sha256 %s, pins.json wants %s: regenerate both with -mkckpt",
			ckptPath(benchDir), got, p.CkptSHA256)
	}
	net, err := benchConfig().Build(rand.New(rand.NewSource(1)))
	if err != nil {
		return nil, err
	}
	if err := train.LoadFile(ckptPath(benchDir), net); err != nil {
		return nil, err
	}
	return net, nil
}

// clipPool is the held-out labelled clips the detect workloads draw
// from, with the reference answer for each.
type clipPool struct {
	samples []terrain.Sample
	want    []metrics.Detection // model.Detect on the bench checkpoint
	bodies  [][]byte            // each clip as a /v1/detect request body
}

// heldOutDataset clips a labelled dataset from a watershed that neither
// training nor the sweeps use.
func heldOutDataset() (*terrain.Dataset, error) {
	dc := experiments.TinyData()
	tc := terrain.DefaultConfig()
	tc.Rows, tc.Cols = 512, 512
	tc.RoadSpacing = dc.RoadSpacing
	tc.StreamThreshold = dc.StreamThreshold
	tc.Seed = poolTerrainSeed
	w, err := terrain.Generate(tc)
	if err != nil {
		return nil, err
	}
	cc := trainClipConfig()
	cc.ClipsPerCrossing = 1
	cc.Seed = poolTerrainSeed
	return terrain.BuildDataset(w, terrain.Render(w), cc)
}

// buildPool makes the pool and computes the reference detections,
// untimed, with the reference forward pass.
func buildPool(net *nn.Sequential) (*clipPool, error) {
	ds, err := heldOutDataset()
	if err != nil {
		return nil, err
	}
	// BuildDataset lists positives first, then as many negatives.
	var pos, neg []terrain.Sample
	for _, s := range ds.Samples {
		if s.Target.HasObject {
			pos = append(pos, s)
		} else {
			neg = append(neg, s)
		}
	}
	if len(pos) < poolSize/2 || len(neg) < poolSize/2 {
		return nil, fmt.Errorf("held-out watershed yields %d positive and %d negative clips, need %d of each",
			len(pos), len(neg), poolSize/2)
	}
	p := &clipPool{samples: append(pos[:poolSize/2:poolSize/2], neg[:poolSize/2]...)}
	for _, s := range p.samples {
		x := s.Image.Reshape(1, terrain.NumBands, ds.ClipSize, ds.ClipSize)
		p.want = append(p.want, model.Detect(net, x)[0])
		body, err := json.Marshal(clipJSON{Bands: s.Image.Dim(0), Size: s.Image.Dim(1), Pixels: s.Image.Data()})
		if err != nil {
			return nil, err // a NaN pixel
		}
		p.bodies = append(p.bodies, body)
	}
	return p, nil
}

// ap scores detections, one per pool clip in pool order, against the
// pool's labels.
func (p *clipPool) ap(dets []metrics.Detection) float64 {
	gts := make([]metrics.GroundTruth, len(p.samples))
	for i, s := range p.samples {
		gts[i] = model.TargetsToGroundTruth([]nn.DetectionTarget{s.Target})[0]
	}
	return metrics.Evaluate(dets, gts, apIoU).AP
}

// clipJSON is the /v1/detect request body for one clip.
type clipJSON struct {
	Bands  int       `json:"bands"`
	Size   int       `json:"size"`
	Pixels []float32 `json:"pixels"`
}
