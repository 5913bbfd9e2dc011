package train

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"slices"

	"drainnet/internal/nn"
)

// checkpointFile is the on-disk format: named parameter tensors plus
// enough metadata to detect mismatched architectures at load time.
type checkpointFile struct {
	Format int
	Params []checkpointParam
}

type checkpointParam struct {
	Name  string
	Shape []int
	Data  []float32
}

const checkpointFormat = 1

// Save writes a network's parameters to w in gob format. Parameter order
// and names must match at load time, which they do for any network built
// from the same model.Config.
func Save(w io.Writer, net *nn.Sequential) error {
	cf := checkpointFile{Format: checkpointFormat}
	for _, p := range net.Params() {
		cf.Params = append(cf.Params, checkpointParam{
			Name:  p.Name,
			Shape: append([]int(nil), p.Value.Shape()...),
			Data:  append([]float32(nil), p.Value.Data()...),
		})
	}
	return gob.NewEncoder(w).Encode(cf)
}

// Load restores parameters saved by Save into net. The network must have
// the same architecture (same parameter names and shapes, in order), and
// every saved tensor must hold exactly as many values as its shape. net
// is written only after the whole checkpoint checks out, so an error
// leaves it as it was.
func Load(r io.Reader, net *nn.Sequential) error {
	var cf checkpointFile
	if err := gob.NewDecoder(r).Decode(&cf); err != nil {
		return fmt.Errorf("train: decode checkpoint: %w", err)
	}
	if cf.Format != checkpointFormat {
		return fmt.Errorf("train: unsupported checkpoint format %d", cf.Format)
	}
	params := net.Params()
	if len(params) != len(cf.Params) {
		return fmt.Errorf("train: checkpoint has %d parameters, network has %d", len(cf.Params), len(params))
	}
	for i, p := range params {
		saved := cf.Params[i]
		if p.Name != saved.Name {
			return fmt.Errorf("train: parameter %d name mismatch: %q vs %q", i, saved.Name, p.Name)
		}
		if !slices.Equal(p.Value.Shape(), saved.Shape) {
			return fmt.Errorf("train: parameter %q shape mismatch: %v vs %v", p.Name, saved.Shape, p.Value.Shape())
		}
		if len(saved.Data) != p.Value.Len() {
			return fmt.Errorf("train: parameter %q holds %d values, shape %v needs %d", p.Name, len(saved.Data), saved.Shape, p.Value.Len())
		}
	}
	for i, p := range params {
		copy(p.Value.Data(), cf.Params[i].Data)
	}
	return nil
}

// SaveFile writes a checkpoint to path (atomically via a temp file).
func SaveFile(path string, net *nn.Sequential) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := Save(f, net); err != nil {
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

// LoadFile reads a checkpoint from path into net.
func LoadFile(path string, net *nn.Sequential) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return Load(f, net)
}
