package hydro

import "drainnet/internal/tensor"

// FlowDir holds D8 flow directions: for each cell, the index 0..7 of the
// steepest-descent neighbor, or -1 for pits and flats with no lower
// neighbor (interior sinks), or -2 for cells that drain off the grid edge.
type FlowDir struct {
	Rows, Cols int
	Dir        []int8
}

// PitDir marks a cell with no downslope neighbor.
const PitDir int8 = -1

// EdgeDir marks a cell that drains off the raster boundary.
const EdgeDir int8 = -2

// At returns the direction at (r, c).
func (f *FlowDir) At(r, c int) int8 { return f.Dir[r*f.Cols+c] }

// Downstream returns the next cell along the flow path and whether the
// path continues (false at pits and edge outflows).
func (f *FlowDir) Downstream(p Point) (Point, bool) {
	d := f.At(p.R, p.C)
	if d < 0 {
		return p, false
	}
	return Point{p.R + d8dr[d], p.C + d8dc[d]}, true
}

// D8FlowDirections computes steepest-descent D8 directions on dem. Border
// cells whose steepest descent leaves the raster are marked EdgeDir.
func D8FlowDirections(dem *Grid) *FlowDir {
	rows, cols := dem.Rows, dem.Cols
	f := &FlowDir{Rows: rows, Cols: cols, Dir: make([]int8, rows*cols)}
	var offset [8]int
	for k := range offset {
		offset[k] = d8dr[k]*cols + d8dc[k]
	}
	// A cell's direction depends on the DEM alone, so rows are shared out
	// over the worker pool.
	tensor.ParallelFor(rows, func(r int) {
		border := r == 0 || r == rows-1
		for c := 0; c < cols; c++ {
			i := r*cols + c
			z := dem.Data[i]
			best := PitDir
			bestSlope := 0.0
			// Only a cell on the raster's rim has neighbours to bounds-check.
			rim := border || c == 0 || c == cols-1
			for k := 0; k < 8; k++ {
				if rim && !dem.In(r+d8dr[k], c+d8dc[k]) {
					continue
				}
				if slope := (z - dem.Data[i+offset[k]]) / dist8(k); slope > bestSlope {
					bestSlope, best = slope, int8(k)
				}
			}
			if rim && best == PitDir {
				// Flowing off the edge is always possible for rim cells;
				// model the outside as infinitely low.
				best = EdgeDir
			}
			f.Dir[i] = best
		}
	})
	return f
}

// FlowAccumulation computes D8 flow accumulation: the number of cells
// that drain through each cell, the cell itself included.
//
// dirs must be acyclic, which D8FlowDirections guarantees on any dem
// (every step is strictly downhill). The pass is Kahn's ordering over
// dirs: a cell hands its total to its receiver once every contributor of
// its own has, so each cell is visited once and dem is read only for its
// geometry. Every partial sum is an integer below 2^53, so the float64
// totals are exact and do not depend on the visiting order. Should a
// hand-built dirs contain a cycle, the pass still terminates: the cells
// on the cycle keep only what acyclic tributaries drained into them.
func FlowAccumulation(dem *Grid, dirs *FlowDir) *Grid {
	acc := NewGrid(dem.Rows, dem.Cols, dem.CellSize)
	for i := range acc.Data {
		acc.Data[i] = 1
	}
	// pending[i] counts the contributors of cell i that have not yet
	// handed over their total (at most 8); settled marks a cell that has.
	const settled = 0xff
	pending := make([]uint8, len(acc.Data))
	for i, d := range dirs.Dir {
		if d >= 0 {
			pending[i+d8dr[d]*dirs.Cols+d8dc[d]]++
		}
	}
	for head := range pending {
		// Follow the path from each headwater for as long as the cell
		// reached has no other contributor outstanding.
		for i := head; pending[i] == 0; {
			pending[i] = settled
			d := dirs.Dir[i]
			if d < 0 {
				break
			}
			j := i + d8dr[d]*dirs.Cols + d8dc[d]
			acc.Data[j] += acc.Data[i]
			pending[j]--
			i = j
		}
	}
	return acc
}

// floodCell is a priority-queue item for priority-flood filling: cell i
// of the raster at (possibly raised) elevation z.
type floodCell struct {
	z float64
	i int
}

// floodHeap is a binary min-heap on z. Which of several equal-z cells
// pops first decides which neighbour FillDepressions raises by eps, so
// push and pop sift exactly as container/heap's up and down do (same
// comparisons, same resulting layout) and the filled surface stays
// bit-identical to the container/heap implementation it replaced.
type floodHeap []floodCell

func (h *floodHeap) push(x floodCell) {
	s := append(*h, x)
	j := len(s) - 1
	for j > 0 {
		parent := (j - 1) / 2
		if !(x.z < s[parent].z) {
			break
		}
		s[j] = s[parent]
		j = parent
	}
	s[j] = x
	*h = s
}

func (h *floodHeap) pop() floodCell {
	s := *h
	n := len(s) - 1
	top, x := s[0], s[n]
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if right := child + 1; right < n && s[right].z < s[child].z {
			child = right
		}
		if !(s[child].z < x.z) {
			break
		}
		s[i] = s[child]
		i = child
	}
	if n > 0 {
		s[i] = x
	}
	*h = s[:n]
	return top
}

// FillDepressions returns a copy of dem with all interior depressions
// raised to their spill elevation (Barnes et al. priority-flood). A tiny
// epsilon gradient keeps filled areas drainable.
func FillDepressions(dem *Grid) *Grid {
	const eps = 1e-6
	out := dem.Clone()
	rows, cols := dem.Rows, dem.Cols
	visited := make([]bool, len(dem.Data))
	var h floodHeap
	seed := func(r, c int) {
		i := r*cols + c
		visited[i] = true
		h.push(floodCell{z: out.Data[i], i: i})
	}
	for c := 0; c < cols; c++ {
		seed(0, c)
		if rows > 1 {
			seed(rows-1, c)
		}
	}
	for r := 1; r < rows-1; r++ {
		seed(r, 0)
		if cols > 1 {
			seed(r, cols-1)
		}
	}
	for len(h) > 0 {
		cell := h.pop()
		r, c := cell.i/cols, cell.i%cols
		for k := 0; k < 8; k++ {
			nr, nc := r+d8dr[k], c+d8dc[k]
			if nr < 0 || nr >= rows || nc < 0 || nc >= cols {
				continue
			}
			ni := nr*cols + nc
			if visited[ni] {
				continue
			}
			visited[ni] = true
			z := out.Data[ni]
			if z <= cell.z {
				z = cell.z + eps
				out.Data[ni] = z
			}
			h.push(floodCell{z: z, i: ni})
		}
	}
	return out
}

// FillDepressionsLimited fills depressions only up to maxDepth of fill:
// shallow natural micro-depressions (interpolation noise) drain, while
// deep ponds — such as those impounded behind road embankments — remain.
// This is the preprocessing hydrologists apply before diagnosing digital
// dams: without it every pixel-scale pit looks like a dam.
func FillDepressionsLimited(dem *Grid, maxDepth float64) *Grid {
	filled := FillDepressions(dem)
	out := dem.Clone()
	for i := range out.Data {
		limit := dem.Data[i] + maxDepth
		if filled.Data[i] <= limit {
			out.Data[i] = filled.Data[i]
		} else {
			out.Data[i] = limit
		}
	}
	return out
}

// ExtractStreams returns the boolean stream mask: cells whose accumulation
// meets the threshold.
func ExtractStreams(acc *Grid, threshold float64) []bool {
	mask := make([]bool, len(acc.Data))
	for i, v := range acc.Data {
		mask[i] = v >= threshold
	}
	return mask
}

// TraceToOutlet follows the D8 path from p until it exits the raster
// (true) or terminates in a pit (false), with a step bound for safety.
func TraceToOutlet(dirs *FlowDir, p Point) bool {
	maxSteps := dirs.Rows * dirs.Cols
	for step := 0; step < maxSteps; step++ {
		d := dirs.At(p.R, p.C)
		if d == EdgeDir {
			return true
		}
		if d == PitDir {
			return false
		}
		p = Point{p.R + d8dr[d], p.C + d8dc[d]}
	}
	return false
}

// ConnectivityScore returns the fraction of stream cells whose flow path
// reaches the raster boundary. Digital dams strand stream cells in pits
// behind embankments, lowering the score; breaching restores it.
func ConnectivityScore(dem *Grid, streamThreshold float64) float64 {
	dirs := D8FlowDirections(dem)
	acc := FlowAccumulation(dem, dirs)
	mask := ExtractStreams(acc, streamThreshold)
	total, connected := 0, 0
	for i, isStream := range mask {
		if !isStream {
			continue
		}
		total++
		if TraceToOutlet(dirs, Point{R: i / dem.Cols, C: i % dem.Cols}) {
			connected++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(connected) / float64(total)
}

// CountPits returns the number of interior sink cells.
func CountPits(dem *Grid) int {
	dirs := D8FlowDirections(dem)
	n := 0
	for _, d := range dirs.Dir {
		if d == PitDir {
			n++
		}
	}
	return n
}
