// Package terrain synthesizes the study area the paper's dataset comes
// from: a gently undulating agricultural watershed (West Fork Big Blue,
// Nebraska — loess plain descending west→east, dense road network, poorly
// developed drainage). It generates the DEM, road embankments, culverts at
// road-stream crossings, renders 4-band (R,G,B,NIR) orthophoto rasters,
// and clips 100×100 labeled samples for CNN training — the synthetic
// stand-in for the paper's hand-digitized NAIP dataset (DESIGN.md §2).
package terrain

import "math/rand"

// noiseField is a seeded value-noise lattice evaluated with bilinear
// interpolation and smoothstep easing.
type noiseField struct {
	lattice []float64
	n       int
}

func newNoiseField(rng *rand.Rand, n int) *noiseField {
	f := &noiseField{n: n, lattice: make([]float64, n*n)}
	for i := range f.lattice {
		f.lattice[i] = rng.Float64()
	}
	return f
}

func smoothstep(t float64) float64 { return t * t * (3 - 2*t) }

// at samples the field at lattice coordinates (x, y), wrapping at edges.
func (f *noiseField) at(x, y float64) float64 {
	xi, yi := int(x), int(y)
	tx, ty := smoothstep(x-float64(xi)), smoothstep(y-float64(yi))
	get := func(i, j int) float64 {
		return f.lattice[(j%f.n)*f.n+(i%f.n)]
	}
	v00 := get(xi, yi)
	v10 := get(xi+1, yi)
	v01 := get(xi, yi+1)
	v11 := get(xi+1, yi+1)
	top := v00 + (v10-v00)*tx
	bot := v01 + (v11-v01)*tx
	return top + (bot-top)*ty
}

// FBM is multi-octave fractal value noise in [0, 1).
type FBM struct {
	fields  []*noiseField
	octaves int
}

// NewFBM creates fractal noise with the given number of octaves.
func NewFBM(rng *rand.Rand, octaves int) *FBM {
	f := &FBM{octaves: octaves}
	for o := 0; o < octaves; o++ {
		f.fields = append(f.fields, newNoiseField(rng, 16<<o))
	}
	return f
}

// At samples the fractal noise at unit coordinates (x, y in [0,1)). It is
// the definition of the noise; the generator and the renderer evaluate it
// a raster row at a time through fbmRows, which the tests hold to At bit
// for bit.
func (f *FBM) At(x, y float64) float64 {
	var sum, norm float64
	amp := 1.0
	freq := 4.0
	for o := 0; o < f.octaves; o++ {
		sum += amp * f.fields[o].at(x*freq, y*freq)
		norm += amp
		amp *= 0.5
		freq *= 2
	}
	return sum / norm
}

// fbmCol is what noiseField.at derives from x alone for one octave: the
// two wrapped lattice columns and the eased fraction between them.
type fbmCol struct {
	i0, i1 int32
	tx     float64
}

// fbmRows evaluates an FBM along raster rows whose sample c lies at
// x = xs[c] on every row: the per-column half of At's work is done once,
// here, and fill does the per-row half once per row.
type fbmRows struct {
	f *FBM
	// cols holds len(xs) entries per octave, octave-major.
	cols []fbmCol
	n    int
}

func newFBMRows(f *FBM, xs []float64) *fbmRows {
	fr := &fbmRows{f: f, n: len(xs), cols: make([]fbmCol, f.octaves*len(xs))}
	freq := 4.0
	for o := 0; o < f.octaves; o++ {
		n := f.fields[o].n
		cols := fr.cols[o*len(xs):][:len(xs)]
		for c, x := range xs {
			x *= freq
			xi := int(x)
			cols[c] = fbmCol{i0: int32(xi % n), i1: int32((xi + 1) % n), tx: smoothstep(x - float64(xi))}
		}
		freq *= 2
	}
	return fr
}

// fill sets dst[c] = f.At(xs[c], y) for every column. Each element goes
// through At's float64 operations in At's order — octaves ascending, sum
// from zero, one division by norm — so the result is At's to the bit.
// Concurrent fills on distinct dst are safe.
func (fr *fbmRows) fill(dst []float64, y float64) {
	dst = dst[:fr.n]
	for c := range dst {
		dst[c] = 0
	}
	var norm float64
	amp := 1.0
	freq := 4.0
	for o := 0; o < fr.f.octaves; o++ {
		field := fr.f.fields[o]
		n := field.n
		yo := y * freq
		yi := int(yo)
		ty := smoothstep(yo - float64(yi))
		row0 := field.lattice[(yi%n)*n:][:n]
		row1 := field.lattice[((yi+1)%n)*n:][:n]
		for c, col := range fr.cols[o*fr.n:][:fr.n] {
			top := row0[col.i0] + (row0[col.i1]-row0[col.i0])*col.tx
			bot := row1[col.i0] + (row1[col.i1]-row1[col.i0])*col.tx
			dst[c] += amp * (top + (bot-top)*ty)
		}
		norm += amp
		amp *= 0.5
		freq *= 2
	}
	for c := range dst {
		dst[c] /= norm
	}
}
