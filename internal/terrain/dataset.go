package terrain

import (
	"fmt"
	"math/rand"
	"sort"

	"drainnet/internal/hydro"
	"drainnet/internal/nn"
	"drainnet/internal/tensor"
)

// Sample is one labeled clip: a 4-band image and its detection target.
type Sample struct {
	// Image is NumBands×Size×Size.
	Image *tensor.Tensor
	// Target is the supervision: objectness and normalized box.
	Target nn.DetectionTarget
	// Center is the clip's top-left corner in watershed coordinates.
	Origin hydro.Point
	// Crossing is the contained crossing (valid when Target.HasObject).
	Crossing hydro.Point
}

// Dataset is a set of samples with deterministic splitting.
type Dataset struct {
	Samples  []Sample
	ClipSize int
}

// ClipConfig controls sample clipping.
type ClipConfig struct {
	// Size is the clip side length in cells (100 in the paper).
	Size int
	// JitterFrac is the maximum offset of the crossing from the clip
	// center, as a fraction of Size (so boxes appear across the clip).
	JitterFrac float64
	// BoxCells is the ground-truth box side length in cells.
	BoxCells int
	// NegativesPerPositive is the number of background clips per crossing
	// clip.
	NegativesPerPositive int
	// ClipsPerCrossing clips each crossing this many times with fresh
	// jitter (simple translation augmentation; ≥1).
	ClipsPerCrossing int
	// Seed drives jitter and negative placement.
	Seed int64
}

// DefaultClipConfig matches the paper's preprocessing (§3.2): 100×100
// samples with the crossing near the center.
func DefaultClipConfig() ClipConfig {
	return ClipConfig{Size: 100, JitterFrac: 0.25, BoxCells: 14, NegativesPerPositive: 1, ClipsPerCrossing: 1, Seed: 7}
}

// BuildDataset clips positive samples around every usable crossing and
// matching negative background clips from the rendered orthophoto.
func BuildDataset(w *Watershed, img *tensor.Tensor, cc ClipConfig) (*Dataset, error) {
	cfg := w.Cfg
	if cc.Size < 16 || cc.Size > cfg.Rows || cc.Size > cfg.Cols {
		return nil, fmt.Errorf("terrain: clip size %d invalid for %dx%d raster", cc.Size, cfg.Rows, cfg.Cols)
	}
	rng := rand.New(rand.NewSource(cc.Seed))
	ds := &Dataset{ClipSize: cc.Size}
	jitter := int(float64(cc.Size) * cc.JitterFrac)

	clips := cc.ClipsPerCrossing
	if clips < 1 {
		clips = 1
	}
	for _, p := range w.Crossings {
		for k := 0; k < clips; k++ {
			// Clip origin so the crossing lands center+jitter.
			offR := rng.Intn(2*jitter+1) - jitter
			offC := rng.Intn(2*jitter+1) - jitter
			r0 := p.R - cc.Size/2 + offR
			c0 := p.C - cc.Size/2 + offC
			if r0 < 0 || c0 < 0 || r0+cc.Size > cfg.Rows || c0+cc.Size > cfg.Cols {
				continue // crossing too close to the raster edge
			}
			clip := Clip(img, r0, c0, cc.Size)
			target := nn.DetectionTarget{
				HasObject: true,
				CX:        float32(p.C-c0) / float32(cc.Size),
				CY:        float32(p.R-r0) / float32(cc.Size),
				W:         float32(cc.BoxCells) / float32(cc.Size),
				H:         float32(cc.BoxCells) / float32(cc.Size),
			}
			ds.Samples = append(ds.Samples, Sample{
				Image: clip, Target: target,
				Origin: hydro.Point{R: r0, C: c0}, Crossing: p,
			})
		}
	}
	if len(ds.Samples) == 0 {
		return nil, fmt.Errorf("terrain: no positive samples could be clipped")
	}

	// Negatives: random windows containing no crossing.
	wantNeg := len(ds.Samples) * cc.NegativesPerPositive
	for tries := 0; wantNeg > 0 && tries < wantNeg*50; tries++ {
		r0 := rng.Intn(cfg.Rows - cc.Size + 1)
		c0 := rng.Intn(cfg.Cols - cc.Size + 1)
		if containsCrossing(w, r0, c0, cc.Size) {
			continue
		}
		ds.Samples = append(ds.Samples, Sample{
			Image:  Clip(img, r0, c0, cc.Size),
			Target: nn.DetectionTarget{HasObject: false},
			Origin: hydro.Point{R: r0, C: c0},
		})
		wantNeg--
	}
	return ds, nil
}

func containsCrossing(w *Watershed, r0, c0, size int) bool {
	for _, p := range w.Crossings {
		if p.R >= r0-4 && p.R < r0+size+4 && p.C >= c0-4 && p.C < c0+size+4 {
			return true
		}
	}
	return false
}

// Clip extracts a size×size window from a C×H×W image at (r0, c0) into
// a new C×size×size tensor. The window must lie fully inside the image.
func Clip(img *tensor.Tensor, r0, c0, size int) *tensor.Tensor {
	out := tensor.New(img.Dim(0), size, size)
	ClipInto(out, img, r0, c0, size)
	return out
}

// ClipInto is Clip into a caller-owned tensor, for callers that cut many
// windows and can reuse one buffer. dst may have any shape of C·size·size
// elements — a C×size×size clip, or the 1×C×size×size batch of one the
// serving pool takes — and is fully overwritten.
func ClipInto(dst, img *tensor.Tensor, r0, c0, size int) {
	bands, rows, cols := img.Dim(0), img.Dim(1), img.Dim(2)
	if r0 < 0 || c0 < 0 || r0+size > rows || c0+size > cols {
		panic(fmt.Sprintf("terrain: clip [%d,%d)+%d outside %v", r0, c0, size, img.Shape()))
	}
	if dst.Len() != bands*size*size {
		panic(fmt.Sprintf("terrain: clip destination %v cannot hold %dx%dx%d", dst.Shape(), bands, size, size))
	}
	dd, id := dst.Data(), img.Data()
	for b := 0; b < bands; b++ {
		for r := 0; r < size; r++ {
			srcBase := (b*rows+(r0+r))*cols + c0
			dstBase := (b*size + r) * size
			copy(dd[dstBase:dstBase+size], id[srcBase:srcBase+size])
		}
	}
}

// Split shuffles deterministically and splits into train/test by fraction
// (the paper's 80/20 split).
func (d *Dataset) Split(trainFrac float64, seed int64) (train, test *Dataset) {
	idx := make([]int, len(d.Samples))
	for i := range idx {
		idx[i] = i
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	cut := int(float64(len(idx)) * trainFrac)
	train = &Dataset{ClipSize: d.ClipSize}
	test = &Dataset{ClipSize: d.ClipSize}
	for i, id := range idx {
		if i < cut {
			train.Samples = append(train.Samples, d.Samples[id])
		} else {
			test.Samples = append(test.Samples, d.Samples[id])
		}
	}
	return train, test
}

// SplitByCrossing splits train/test so that all clips of one crossing land
// on the same side (no leakage under ClipsPerCrossing augmentation).
// Negatives are distributed by the same fraction.
func (d *Dataset) SplitByCrossing(trainFrac float64, seed int64) (train, test *Dataset) {
	rng := rand.New(rand.NewSource(seed))
	// Collect distinct crossings.
	type key struct{ r, c int }
	groups := map[key][]int{}
	var negatives []int
	for i, s := range d.Samples {
		if s.Target.HasObject {
			k := key{s.Crossing.R, s.Crossing.C}
			groups[k] = append(groups[k], i)
		} else {
			negatives = append(negatives, i)
		}
	}
	var keys []key
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].r != keys[b].r {
			return keys[a].r < keys[b].r
		}
		return keys[a].c < keys[b].c
	})
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	rng.Shuffle(len(negatives), func(i, j int) { negatives[i], negatives[j] = negatives[j], negatives[i] })

	train = &Dataset{ClipSize: d.ClipSize}
	test = &Dataset{ClipSize: d.ClipSize}
	cut := int(float64(len(keys)) * trainFrac)
	for i, k := range keys {
		dst := train
		if i >= cut {
			dst = test
		}
		for _, idx := range groups[k] {
			dst.Samples = append(dst.Samples, d.Samples[idx])
		}
	}
	negCut := int(float64(len(negatives)) * trainFrac)
	for i, idx := range negatives {
		if i < negCut {
			train.Samples = append(train.Samples, d.Samples[idx])
		} else {
			test.Samples = append(test.Samples, d.Samples[idx])
		}
	}
	return train, test
}

// Batch assembles samples [lo, hi) into an N×C×S×S tensor and target list.
func (d *Dataset) Batch(lo, hi int) (*tensor.Tensor, []nn.DetectionTarget) {
	if lo < 0 || hi > len(d.Samples) || lo >= hi {
		panic(fmt.Sprintf("terrain: invalid batch range [%d,%d) of %d", lo, hi, len(d.Samples)))
	}
	n := hi - lo
	s := d.ClipSize
	bands := d.Samples[lo].Image.Dim(0)
	x := tensor.New(n, bands, s, s)
	targets := make([]nn.DetectionTarget, n)
	stride := bands * s * s
	for i := 0; i < n; i++ {
		copy(x.Data()[i*stride:(i+1)*stride], d.Samples[lo+i].Image.Data())
		targets[i] = d.Samples[lo+i].Target
	}
	return x, targets
}

// Positives returns the number of positive samples.
func (d *Dataset) Positives() int {
	n := 0
	for _, s := range d.Samples {
		if s.Target.HasObject {
			n++
		}
	}
	return n
}

// Shuffle reorders samples deterministically (between training epochs).
func (d *Dataset) Shuffle(seed int64) {
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(d.Samples), func(i, j int) {
		d.Samples[i], d.Samples[j] = d.Samples[j], d.Samples[i]
	})
}
