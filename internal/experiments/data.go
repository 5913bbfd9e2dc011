// Package experiments regenerates every data artifact of the paper's
// evaluation — Table 1 (NAS accuracy), Table 2 (sequential vs IOS
// latency), Figure 6 (batch-size efficiency), Figure 7 (GPU memops
// timing), Figure 8 (CUDA API shares), Table 3 (kernel-class breakdown) —
// plus the §8.1 baseline comparison and the ablations called out in
// DESIGN.md §5. Each experiment returns a typed result with a Render
// method; cmd/drainnet-bench and the repo's benchmarks are thin wrappers.
package experiments

import (
	"fmt"
	"math/rand"

	"drainnet/internal/gpu"
	"drainnet/internal/model"
	"drainnet/internal/nn"
	"drainnet/internal/terrain"
	"drainnet/internal/train"
)

// Batches is the paper's batch-size sweep (§6.4, §7).
var Batches = []int{1, 2, 4, 8, 16, 32, 64}

// DataConfig controls the synthetic dataset and training budget used by
// the accuracy experiments. The default is sized for minutes-scale runs
// on a CPU: the architecture family is width-scaled (model.Config.Scaled)
// and clips are smaller than the paper's 100×100, which preserves the
// relative ordering NAS explores while keeping pure-Go training cheap.
type DataConfig struct {
	TerrainRows, TerrainCols int
	RoadSpacing              int
	StreamThreshold          float64
	TerrainSeed              int64

	ClipSize         int
	ClipsPerCrossing int
	JitterFrac       float64

	WidthScale int
	Epochs     int
	BatchSize  int
	SplitSeed  int64
	NetSeed    int64

	// IoUThreshold scores AP (Table 1 uses 0.4, between the strict COCO
	// 0.5 and the lenient 0.3).
	IoUThreshold float64
}

// FastData is the default minutes-scale configuration.
func FastData() DataConfig {
	return DataConfig{
		TerrainRows: 384, TerrainCols: 384,
		RoadSpacing:      72,
		StreamThreshold:  120,
		TerrainSeed:      2022,
		ClipSize:         40,
		ClipsPerCrossing: 4,
		JitterFrac:       0.08,
		WidthScale:       8,
		Epochs:           24,
		BatchSize:        10,
		SplitSeed:        5,
		NetSeed:          11,
		IoUThreshold:     0.4,
	}
}

// TinyData is a seconds-scale configuration for tests.
func TinyData() DataConfig {
	d := FastData()
	d.TerrainRows, d.TerrainCols = 256, 256
	d.ClipsPerCrossing = 2
	d.WidthScale = 16
	d.Epochs = 10
	return d
}

// BuildData synthesizes the watershed, renders the orthophoto, clips the
// dataset, and splits it by crossing.
func BuildData(dc DataConfig) (trainDS, testDS *terrain.Dataset, err error) {
	tc := terrain.DefaultConfig()
	tc.Rows, tc.Cols = dc.TerrainRows, dc.TerrainCols
	tc.RoadSpacing = dc.RoadSpacing
	tc.StreamThreshold = dc.StreamThreshold
	tc.Seed = dc.TerrainSeed
	w, err := terrain.Generate(tc)
	if err != nil {
		return nil, nil, err
	}
	img := terrain.Render(w)
	cc := terrain.DefaultClipConfig()
	cc.Size = dc.ClipSize
	cc.JitterFrac = dc.JitterFrac
	cc.ClipsPerCrossing = dc.ClipsPerCrossing
	ds, err := terrain.BuildDataset(w, img, cc)
	if err != nil {
		return nil, nil, err
	}
	trainDS, testDS = ds.SplitByCrossing(0.8, dc.SplitSeed)
	if len(trainDS.Samples) == 0 || len(testDS.Samples) == 0 {
		return nil, nil, fmt.Errorf("experiments: degenerate split (%d train, %d test)", len(trainDS.Samples), len(testDS.Samples))
	}
	return trainDS, testDS, nil
}

// TrainOptions is the shared training protocol at dc's budget: the
// paper's optimizer with dc's epochs and batch size, box-loss weight 5,
// and the learning rate cut tenfold two thirds of the way through.
func (dc DataConfig) TrainOptions() train.Options {
	opt := train.PaperOptions()
	opt.Epochs = dc.Epochs
	opt.BatchSize = dc.BatchSize
	opt.BoxWeight = 5
	opt.LRStepEpoch = dc.Epochs * 2 / 3
	opt.LRStepGamma = 0.1
	return opt
}

// TrainAndScore trains one architecture under the shared protocol and
// returns its test AP.
func TrainAndScore(cfg model.Config, dc DataConfig, trainDS, testDS *terrain.Dataset) (float64, error) {
	scaled := cfg.Scaled(dc.WidthScale).WithInput(terrain.NumBands, dc.ClipSize)
	_, ap, err := TrainNet(scaled, dc, trainDS, testDS)
	return ap, err
}

// TrainNet trains one already-scaled architecture under the shared
// protocol and returns the trained network alongside its test AP — the
// hardware-in-the-loop NAS needs the network itself to measure.
func TrainNet(scaled model.Config, dc DataConfig, trainDS, testDS *terrain.Dataset) (*nn.Sequential, float64, error) {
	net, err := scaled.Build(rand.New(rand.NewSource(dc.NetSeed)))
	if err != nil {
		return nil, 0, err
	}
	if _, err := train.Fit(net, trainDS, dc.TrainOptions()); err != nil {
		return nil, 0, err
	}
	return net, train.Evaluate(net, testDS, dc.IoUThreshold).AP, nil
}

// Device returns the simulated GPU every efficiency experiment uses.
func Device() gpu.DeviceConfig { return gpu.RTXA5500() }
