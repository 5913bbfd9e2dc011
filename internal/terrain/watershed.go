package terrain

import (
	"fmt"
	"math/rand"

	"drainnet/internal/hydro"
	"drainnet/internal/tensor"
)

// Config controls watershed synthesis.
type Config struct {
	Rows, Cols int
	Seed       int64
	// ReliefM is the local noise relief amplitude in meters.
	ReliefM float64
	// RegionalDropM is the west→east elevation drop across the raster.
	RegionalDropM float64
	// RoadSpacing is the distance between section roads in cells.
	RoadSpacing int
	// RoadHalfWidth is the road half-width in cells.
	RoadHalfWidth int
	// EmbankmentM is the road embankment height in meters (the digital
	// dam amplitude).
	EmbankmentM float64
	// StreamThreshold is the flow-accumulation threshold (in cells) above
	// which a cell counts as stream.
	StreamThreshold float64
}

// DefaultConfig matches the study area's character at 1 m resolution.
func DefaultConfig() Config {
	return Config{
		Rows: 512, Cols: 512,
		Seed:            2022,
		ReliefM:         6,
		RegionalDropM:   14,
		RoadSpacing:     128,
		RoadHalfWidth:   2,
		EmbankmentM:     2.5,
		StreamThreshold: 400,
	}
}

// Watershed is a synthesized study area.
type Watershed struct {
	Cfg Config
	// BaseDEM is the terrain before road embankments.
	BaseDEM *hydro.Grid
	// DEM includes road embankments (digital dams).
	DEM *hydro.Grid
	// RoadMask marks road cells.
	RoadMask []bool
	// StreamMask marks stream cells (from the base terrain).
	StreamMask []bool
	// WetMask marks depressional wetland cells.
	WetMask []bool
	// Crossings are the true drainage-crossing (culvert) locations: one
	// point per road-stream intersection cluster.
	Crossings []hydro.Point
}

// Generate synthesizes a watershed from the config.
func Generate(cfg Config) (*Watershed, error) {
	if cfg.Rows < 64 || cfg.Cols < 64 {
		return nil, fmt.Errorf("terrain: raster %dx%d too small (min 64)", cfg.Rows, cfg.Cols)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	w := &Watershed{Cfg: cfg}

	w.BaseDEM = baseTerrain(cfg, rng)
	filled := hydro.FillDepressions(w.BaseDEM)
	w.StreamMask = streams(filled, cfg.StreamThreshold)
	w.WetMask = wetlands(w.BaseDEM, filled)
	w.RoadMask = roadNetwork(cfg, rng)

	// Apply embankments on top of the base terrain.
	w.DEM = w.BaseDEM.Clone()
	for i, road := range w.RoadMask {
		if road {
			w.DEM.Data[i] += cfg.EmbankmentM
		}
	}
	w.Crossings = findCrossings(cfg, w.RoadMask, w.StreamMask)
	if len(w.Crossings) == 0 {
		return nil, fmt.Errorf("terrain: no drainage crossings generated (seed %d); adjust config", cfg.Seed)
	}
	return w, nil
}

// baseTerrain builds the pre-road DEM: fractal relief over a west→east
// regional slope, with valleys deepened along a smooth channel field.
func baseTerrain(cfg Config, rng *rand.Rand) *hydro.Grid {
	dem := hydro.NewGrid(cfg.Rows, cfg.Cols, 1)
	relief := NewFBM(rng, 4)
	valleys := NewFBM(rng, 2)
	xs := make([]float64, cfg.Cols)
	half := make([]float64, cfg.Cols)
	for c := range xs {
		xs[c] = float64(c) / float64(cfg.Cols)
		half[c] = xs[c] * 0.5
	}
	// Every cell is a pure function of (r, c) once the noise lattices are
	// drawn, so row bands are shared out over the worker pool.
	tensor.ParallelRange(cfg.Rows, 1, &terrainBands{
		cfg: cfg, dem: dem, xs: xs,
		relief: newFBMRows(relief, xs), valleys: newFBMRows(valleys, half),
	})
	return dem
}

// terrainBands fills bands of baseTerrain's rows.
type terrainBands struct {
	cfg             Config
	dem             *hydro.Grid
	xs              []float64
	relief, valleys *fbmRows
}

func (t *terrainBands) RunRange(lo, hi int) {
	cfg := t.cfg
	valley := make([]float64, cfg.Cols) // this band's own scratch row
	for r := lo; r < hi; r++ {
		row := t.dem.Data[r*cfg.Cols:][:cfg.Cols]
		y := float64(r) / float64(cfg.Rows)
		t.relief.fill(row, y) // the DEM row holds the relief until it is combined
		t.valleys.fill(valley, y*0.5)
		for c, x := range t.xs {
			z := cfg.RegionalDropM * (1 - x) // descending west→east
			z += cfg.ReliefM * row[c]        // loess undulation
			// Valley carving: a band of low "valleys" noise becomes a
			// drainage corridor.
			if v := valley[c]; v < 0.45 {
				z -= (0.45 - v) * 10
			}
			row[c] = z
		}
	}
}

// streams delineates the channel network on the depression-filled terrain.
func streams(filled *hydro.Grid, threshold float64) []bool {
	dirs := hydro.D8FlowDirections(filled)
	acc := hydro.FlowAccumulation(filled, dirs)
	return hydro.ExtractStreams(acc, threshold)
}

// wetlands marks cells that the depression-filling raised significantly:
// those are closed depressions (the watershed's depressional wetlands).
func wetlands(dem, filled *hydro.Grid) []bool {
	mask := make([]bool, len(dem.Data))
	for i := range mask {
		mask[i] = filled.Data[i]-dem.Data[i] > 0.3
	}
	return mask
}

// roadNetwork lays out section roads: north-south and east-west lines at
// RoadSpacing intervals with per-road jitter and gentle wiggle.
func roadNetwork(cfg Config, rng *rand.Rand) []bool {
	mask := make([]bool, cfg.Rows*cfg.Cols)
	mark := func(r, c int) {
		for dr := -cfg.RoadHalfWidth; dr <= cfg.RoadHalfWidth; dr++ {
			for dc := -cfg.RoadHalfWidth; dc <= cfg.RoadHalfWidth; dc++ {
				rr, cc := r+dr, c+dc
				if rr >= 0 && rr < cfg.Rows && cc >= 0 && cc < cfg.Cols {
					mask[rr*cfg.Cols+cc] = true
				}
			}
		}
	}
	// North-south roads.
	for c0 := cfg.RoadSpacing / 2; c0 < cfg.Cols; c0 += cfg.RoadSpacing {
		c := c0 + rng.Intn(21) - 10
		wiggle := rng.Float64()*4 - 2
		for r := 0; r < cfg.Rows; r++ {
			cc := c + int(wiggle*float64(r)/float64(cfg.Rows))
			if cc >= 0 && cc < cfg.Cols {
				mark(r, cc)
			}
		}
	}
	// East-west roads.
	for r0 := cfg.RoadSpacing / 2; r0 < cfg.Rows; r0 += cfg.RoadSpacing {
		r := r0 + rng.Intn(21) - 10
		wiggle := rng.Float64()*4 - 2
		for c := 0; c < cfg.Cols; c++ {
			rr := r + int(wiggle*float64(c)/float64(cfg.Cols))
			if rr >= 0 && rr < cfg.Rows {
				mark(rr, c)
			}
		}
	}
	return mask
}

// findCrossings clusters road∩stream cells into one representative point
// per contiguous intersection (a culvert location).
func findCrossings(cfg Config, roads, streams []bool) []hydro.Point {
	n := cfg.Rows * cfg.Cols
	inter := make([]bool, n)
	for i := 0; i < n; i++ {
		inter[i] = roads[i] && streams[i]
	}
	seen := make([]bool, n)
	var out []hydro.Point
	var queue []int
	for i := 0; i < n; i++ {
		if !inter[i] || seen[i] {
			continue
		}
		// BFS the cluster, collecting its centroid.
		queue = append(queue[:0], i)
		seen[i] = true
		var sumR, sumC, count int
		for head := 0; head < len(queue); head++ {
			cur := queue[head]
			r, c := cur/cfg.Cols, cur%cfg.Cols
			sumR += r
			sumC += c
			count++
			for dr := -1; dr <= 1; dr++ {
				for dc := -1; dc <= 1; dc++ {
					rr, cc := r+dr, c+dc
					if rr < 0 || rr >= cfg.Rows || cc < 0 || cc >= cfg.Cols {
						continue
					}
					j := rr*cfg.Cols + cc
					if inter[j] && !seen[j] {
						seen[j] = true
						queue = append(queue, j)
					}
				}
			}
		}
		out = append(out, hydro.Point{R: sumR / count, C: sumC / count})
	}
	return out
}
