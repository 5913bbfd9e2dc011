package terrain

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"drainnet/internal/hydro"
	"drainnet/internal/nn"
	"drainnet/internal/tensor"
)

// datasetFile is the on-disk dataset format. Sample images are stored as
// raw float32 slices with a shared shape (all clips in one dataset have
// identical dimensions).
type datasetFile struct {
	Format   int
	ClipSize int
	Bands    int
	Samples  []sampleRecord
}

type sampleRecord struct {
	Pixels   []float32
	Target   nn.DetectionTarget
	Origin   hydro.Point
	Crossing hydro.Point
}

const datasetFormat = 1

// SaveDataset writes the dataset to w in gob format, so expensive
// generation runs can be cached and shared.
func SaveDataset(w io.Writer, ds *Dataset) error {
	if len(ds.Samples) == 0 {
		return fmt.Errorf("terrain: refusing to save an empty dataset")
	}
	df := datasetFile{
		Format:   datasetFormat,
		ClipSize: ds.ClipSize,
		Bands:    ds.Samples[0].Image.Dim(0),
	}
	for _, s := range ds.Samples {
		df.Samples = append(df.Samples, sampleRecord{
			Pixels:   s.Image.Data(),
			Target:   s.Target,
			Origin:   s.Origin,
			Crossing: s.Crossing,
		})
	}
	return gob.NewEncoder(w).Encode(df)
}

// LoadDataset reads a dataset written by SaveDataset.
func LoadDataset(r io.Reader) (*Dataset, error) {
	var df datasetFile
	if err := gob.NewDecoder(r).Decode(&df); err != nil {
		return nil, fmt.Errorf("terrain: decode dataset: %w", err)
	}
	if df.Format != datasetFormat {
		return nil, fmt.Errorf("terrain: unsupported dataset format %d", df.Format)
	}
	if df.Bands < 1 || df.ClipSize < 1 {
		return nil, fmt.Errorf("terrain: dataset header declares %d bands of %dx%d clips", df.Bands, df.ClipSize, df.ClipSize)
	}
	ds := &Dataset{ClipSize: df.ClipSize}
	for i, rec := range df.Samples {
		// Divide rather than multiply: a hostile header's product can wrap
		// to any length, len(rec.Pixels) cannot.
		n := len(rec.Pixels)
		perBand := n / df.Bands
		if n%df.Bands != 0 || perBand%df.ClipSize != 0 || perBand/df.ClipSize != df.ClipSize {
			return nil, fmt.Errorf("terrain: sample %d has %d pixels, want %d bands of %dx%d", i, n, df.Bands, df.ClipSize, df.ClipSize)
		}
		ds.Samples = append(ds.Samples, Sample{
			Image:    tensor.FromSlice(rec.Pixels, df.Bands, df.ClipSize, df.ClipSize),
			Target:   rec.Target,
			Origin:   rec.Origin,
			Crossing: rec.Crossing,
		})
	}
	return ds, nil
}

// SaveDatasetFile writes the dataset to path atomically.
func SaveDatasetFile(path string, ds *Dataset) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := SaveDataset(f, ds); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// LoadDatasetFile reads a dataset from path.
func LoadDatasetFile(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadDataset(f)
}
