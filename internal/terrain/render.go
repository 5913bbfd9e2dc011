package terrain

import (
	"math/rand"

	"drainnet/internal/hydro"
	"drainnet/internal/tensor"
)

// Band indices of the rendered orthophoto.
const (
	BandR = iota
	BandG
	BandB
	BandNIR
	NumBands
)

// Render produces the 4-band (R, G, B, NIR) orthophoto of the watershed
// as a NumBands×Rows×Cols tensor with values in [0, 1]. Land-cover
// spectral signatures follow NAIP color-infrared conventions: cropland is
// green/NIR-bright, open water and wet soils are NIR-dark, roads are
// uniformly gray with low NIR, and culvert headwalls at drainage
// crossings render as compact bright concrete signatures.
func Render(w *Watershed) *tensor.Tensor {
	cfg := w.Cfg
	rows, cols := cfg.Rows, cfg.Cols
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	img := tensor.New(NumBands, rows, cols)
	xs := make([]float64, cols)
	for c := range xs {
		xs[c] = float64(c) / float64(cols) * 3
	}
	tex := newFBMRows(NewFBM(rng, 3), xs) // field texture

	var plane [NumBands][]float32
	for b := range plane {
		plane[b] = img.Data()[b*rows*cols:][:rows*cols]
	}
	// Riparian vegetation grows within 3 cells of a channel.
	riparian := hydro.Dilate(w.StreamMask, rows, cols, 3)

	// shadeRow paints row r; noise holds the row's per-pixel sensor jitter
	// and texture is the row's scratch for the field texture.
	shadeRow := func(r int, noise, texture []float64) {
		y := float64(r) / float64(rows)
		tex.fill(texture, y*3)
		for c := 0; c < cols; c++ {
			i := r*cols + c
			t := texture[c]
			n := noise[c]

			// Cropland base.
			red, green, blue, nir := 0.28+0.1*t, 0.38+0.12*t, 0.22+0.06*t, 0.62+0.2*t

			if w.WetMask[i] {
				// Depressional wetland: darker, wetter, NIR-suppressed.
				red, green, blue, nir = 0.18, 0.24, 0.2, 0.3
			}
			if riparian[i] {
				// Riparian vegetation: greenest, highest NIR.
				red, green, blue, nir = 0.16, 0.34, 0.14, 0.85
			}
			if w.StreamMask[i] {
				// Open water / wet channel: dark, blue-leaning, NIR-black.
				red, green, blue, nir = 0.1, 0.14, 0.22, 0.06
			}
			if w.RoadMask[i] {
				// Gravel/asphalt road: flat gray, low NIR.
				g := 0.5 + 0.08*t
				red, green, blue, nir = g, g, g, 0.18
			}
			plane[BandR][i] = unit32(red + n)
			plane[BandG][i] = unit32(green + n)
			plane[BandB][i] = unit32(blue + n)
			plane[BandNIR][i] = unit32(nir + n)
		}
	}
	// The jitter comes off one sequential stream, pixel by pixel in raster
	// order, so each strip of rows has its share drawn first and is then
	// shaded row-parallel on the shared worker pool. The strip's texture
	// rows live beside its jitter rows, one scratch for both.
	const stripRows = 32
	scratch := make([]float64, 2*min(stripRows, rows)*cols)
	noise, texture := scratch[:len(scratch)/2], scratch[len(scratch)/2:]
	for r0 := 0; r0 < rows; r0 += stripRows {
		n := min(stripRows, rows-r0)
		for i := range noise[:n*cols] {
			noise[i] = rng.Float64() * 0.04
		}
		tensor.ParallelFor(n, func(k int) { shadeRow(r0+k, noise[k*cols:], texture[k*cols:]) })
	}

	// Culvert structures: bright concrete headwalls flanking the channel
	// where it passes under the road.
	for _, p := range w.Crossings {
		for dr := -2; dr <= 2; dr++ {
			for dc := -2; dc <= 2; dc++ {
				r, c := p.R+dr, p.C+dc
				if r < 0 || r >= rows || c < 0 || c >= cols {
					continue
				}
				if dr*dr+dc*dc > 6 {
					continue
				}
				i := r*cols + c
				plane[BandR][i], plane[BandG][i], plane[BandB][i], plane[BandNIR][i] = 0.88, 0.86, 0.82, 0.35
			}
		}
	}
	return img
}

// unit32 clamps a radiance to [0, 1] and narrows it to the raster's type.
func unit32(v float64) float32 {
	if v < 0 {
		v = 0
	}
	if v > 1 {
		v = 1
	}
	return float32(v)
}
