package hydro

import (
	"fmt"
	"math"

	"drainnet/internal/tensor"
)

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
//
// A neighbour's slope is its drop divided by its distance, 1 or √2. It
// divides only a diagonal drop that already beats the best slope so far:
// the best slope is never negative, a drop that beats it is positive, and
// a correctly rounded quotient of a positive drop by a distance ≥ 1 is
// at most the drop, so a drop that loses cannot win once divided. NaN
// fails every comparison, divided or not; a division by 1 changes no
// bit. The directions are those of dividing every drop.
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
				// The slope is the drop over a distance ≥ 1, so it is at
				// most the drop: a drop that does not beat the best slope
				// is not divided. A diagonal's (the odd directions) is; the
				// others' distance is 1.
				slope := z - dem.Data[i+offset[k]]
				if !(slope > bestSlope) {
					continue
				}
				if k&1 == 1 {
					if slope /= dist8(k); !(slope > bestSlope) {
						continue
					}
				}
				bestSlope, best = slope, int8(k)
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
	i int32
}

// floodHeap is a binary min-heap on z. It promises nondecreasing z and
// nothing about which of several equal-z cells pops first; FillDepressions
// needs no more (see there).
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

// down sifts x from the hole at i towards the leaves and drops it where
// the heap order holds.
func (h floodHeap) down(i int, x floodCell) {
	n := len(h)
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if right := child + 1; right < n && h[right].z < h[child].z {
			child = right
		}
		if !(h[child].z < x.z) {
			break
		}
		h[i] = h[child]
		i = child
	}
	h[i] = x
}

// heapify orders an arbitrary slice as a heap.
func (h floodHeap) heapify() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i, h[i])
	}
}

func (h *floodHeap) pop() floodCell {
	s := *h
	n := len(s) - 1
	top, x := s[0], s[n]
	s = s[:n]
	if n > 0 {
		s.down(0, x)
	}
	*h = s
	return top
}

// floodQueue is FillDepressions' priority queue. The elevation range is
// cut into levels; only the cells of the level being drained sit in the
// heap, and a queued cell of a higher level waits on that level's list
// until the drain reaches it. level is monotone in z, so every waiting
// cell is strictly higher than every cell in the heap and pops come out
// in nondecreasing z over the whole flood, while a push or a pop sifts
// through one level's cells instead of the whole flood front.
//
// Only the front is ever queued, so the lists are front-sized: nodes from
// one slice, recycled through a free list as levels drain, and one head
// per level. Node 0 is the nil link.
type floodQueue struct {
	lo, scale float64
	head      []int32 // per level: its first waiting node
	nodes     []floodNode
	free      int32
	cur       int // level being drained; -1 while the rim is seeded
	heap      floodHeap
}

type floodNode struct {
	cell, next int32
}

// floodCellsPerLevel sizes the level count from the cell count: few
// enough cells a level that a sift is two or three steps, few enough
// levels that their heads stay a small fraction of the raster.
const floodCellsPerLevel = 16

func newFloodQueue(dem *Grid) *floodQueue {
	lo, hi := dem.MinMax()
	levels := max(len(dem.Data)/floodCellsPerLevel, 1)
	scale := float64(levels) / (hi - lo)
	if !(scale > 0) || math.IsInf(scale, 1) {
		// A flat raster, or one whose range is not a finite number: one
		// level, a single heap.
		levels, scale = 1, 0
	}
	return &floodQueue{
		lo: lo, scale: scale,
		head:  make([]int32, levels),
		nodes: make([]floodNode, 1, 1+2*(dem.Rows+dem.Cols)),
		cur:   -1,
	}
}

// level maps an elevation to its level, monotonically. Elevations raised
// past the raster's maximum share the top level; a NaN lands on level 0.
func (q *floodQueue) level(z float64) int {
	f := (z - q.lo) * q.scale
	if last := len(q.head) - 1; f >= float64(last) {
		return last
	}
	if f > 0 {
		return int(f)
	}
	return 0
}

// add queues cell i at elevation z: on the heap if its level is being
// drained, else on its level's list.
func (q *floodQueue) add(z float64, i int32) {
	l := q.level(z)
	if l <= q.cur {
		q.heap.push(floodCell{z: z, i: i})
		return
	}
	k := q.free
	if k != 0 {
		q.free = q.nodes[k].next
	} else {
		k = int32(len(q.nodes))
		q.nodes = append(q.nodes, floodNode{})
	}
	q.nodes[k] = floodNode{cell: i, next: q.head[l]}
	q.head[l] = k
}

// drain makes level l the one being drained: its waiting cells, whose
// elevations are final in z, move to the heap and their nodes to the
// free list.
func (q *floodQueue) drain(l int, z []float64) {
	q.cur = l
	first := q.head[l]
	if first == 0 {
		return
	}
	q.head[l] = 0
	k := first
	for {
		cell := q.nodes[k].cell
		q.heap = append(q.heap, floodCell{z: z[cell], i: cell})
		if q.nodes[k].next == 0 {
			break
		}
		k = q.nodes[k].next
	}
	q.nodes[k].next, q.free = q.free, first
	q.heap.heapify()
}

// FillDepressions returns a copy of dem with all interior depressions
// raised to their spill elevation (Barnes et al. priority-flood). A tiny
// epsilon gradient keeps filled areas drainable.
//
// The flood visits cells in nondecreasing order of filled elevation, and
// the surface does not depend on the order among equal elevations: a
// cell n reached from a queued neighbour at elevation z gets
// f(z) = dem[n] if z < dem[n], else z + eps, which is monotone and never
// below z, so — as for Dijkstra's shortest paths — the flood computes the
// one least surface with filled[n] = min over neighbours m of f(filled[m])
// and the rim kept, whichever of several equal-z cells pops first.
//
// The raster is flooded in row tiles, one per worker-pool participant
// and none thinner than fillTileRows, each from the raster rim inside it.
// A tile's first surface is the least one over paths that stay inside
// the tile, never below the global one. The seams are then relaxed until
// no tile lowers a cell (see fillTile.relax): every write is f of a
// current neighbour and only lowers, so the fixpoint is the least
// surface above, bit for bit, at any tile count. One participant, or a
// busy pool, floods a single tile: the whole raster, as one flood.
//
// A dem holding NaN or ±Inf is filled without panicking, but to
// unspecified values. Rasters are limited to 2³¹−1 cells.
func FillDepressions(dem *Grid) *Grid {
	f := newTiledFill(dem, min(tensor.PoolWorkers()+1, max(dem.Rows/fillTileRows, 1)))
	tensor.ParallelRange(len(f.tiles), 1, f)
	return f.finish()
}

// fillEps is the rise FillDepressions gives a cell it raises over the
// neighbour it was reached from.
const fillEps = 1e-6

// fillTileRows is the thinnest row tile FillDepressions floods on its
// own, so that seams stay a small share of a tile's cells.
const fillTileRows = 32

// fillStep is f_n of FillDepressions: the elevation cell n, at d in the
// dem, gets when it is reached from a neighbour at elevation z.
func fillStep(z, d float64) float64 {
	if d <= z {
		return z + fillEps
	}
	return d
}

// tiledFill is one FillDepressions call: the filled copy of dem cut into
// row tiles. As a Ranger it floods tiles [lo, hi) as one tile, so the
// pool running a region inline floods the whole raster at once.
type tiledFill struct {
	dem, out *Grid
	visited  []bool
	bounds   []int      // tile t holds rows [bounds[t], bounds[t+1])
	tiles    []fillTile // tiles[lo] is set by the RunRange that started at lo
}

func newTiledFill(dem *Grid, k int) *tiledFill {
	n := len(dem.Data)
	if n > math.MaxInt32 {
		panic(fmt.Sprintf("hydro: FillDepressions: %dx%d raster exceeds the flood queue's 32-bit cell index", dem.Rows, dem.Cols))
	}
	k = min(max(k, 1), dem.Rows)
	f := &tiledFill{
		dem: dem, out: dem.Clone(), visited: make([]bool, n),
		bounds: make([]int, k+1), tiles: make([]fillTile, k),
	}
	for t := range f.bounds {
		f.bounds[t] = t * dem.Rows / k
	}
	return f
}

func (f *tiledFill) RunRange(lo, hi int) {
	r0, r1 := f.bounds[lo], f.bounds[hi]
	cols := f.dem.Cols
	rows := func(g *Grid) *Grid {
		return &Grid{Rows: r1 - r0, Cols: cols, CellSize: g.CellSize, Data: g.Data[r0*cols : r1*cols]}
	}
	t := &f.tiles[lo]
	*t = fillTile{dem: rows(f.dem), out: rows(f.out), visited: f.visited[r0*cols : r1*cols], next: hi}
	t.flood(r0 == 0, r1 == f.dem.Rows)
}

// finish relaxes the seams between the tiles as flooded and returns the
// filled raster.
func (f *tiledFill) finish() *Grid {
	tiles := f.tiles[:0]
	for t := 0; t < len(f.tiles); t = f.tiles[t].next {
		tiles = append(tiles, f.tiles[t])
	}
	tileSet(tiles).relax()
	return f.out
}

// fillTile is one row tile of a tiledFill: views of its rows of the dem,
// of the filled surface and of the flood's visited marks.
type fillTile struct {
	dem, out *Grid
	visited  []bool
	next     int // the tile index after this one
	// above and below snapshot the rows across the tile's top and bottom
	// seams; nil on the raster's rim.
	above, below []float64
	heap         floodHeap
	lowered      bool
}

// flood is the priority flood from the raster rim inside the tile: its
// first and last columns, and its first (last) row when top (bottom).
func (t *fillTile) flood(top, bottom bool) {
	out := t.out
	rows, cols := out.Rows, out.Cols
	n := len(out.Data)
	visited := t.visited
	q := newFloodQueue(out)
	seed := func(r, c int) {
		i := r*cols + c
		visited[i] = true
		q.add(out.Data[i], int32(i))
	}
	for r := 0; r < rows; r++ {
		if r == 0 && top || r == rows-1 && bottom {
			for c := 0; c < cols; c++ {
				seed(r, c)
			}
			continue
		}
		seed(r, 0)
		if cols > 1 {
			seed(r, cols-1)
		}
	}
	var offset [8]int
	for k := range offset {
		offset[k] = d8dr[k]*cols + d8dc[k]
	}
	// reach queues neighbour ni of a cell popped at elevation z, raised
	// if it does not already lie above it.
	reach := func(ni int, z float64) {
		if visited[ni] {
			return
		}
		visited[ni] = true
		nz := out.Data[ni]
		if nz <= z {
			nz = z + fillEps
			out.Data[ni] = nz
		}
		q.add(nz, int32(ni))
	}
	for l := range q.head {
		q.drain(l, out.Data)
		for len(q.heap) > 0 {
			cell := q.heap.pop()
			i := int(cell.i)
			// Only a cell on the tile's rim has neighbours to bounds-check.
			if c := i % cols; i >= cols && i < n-cols && c > 0 && c < cols-1 {
				for _, d := range offset {
					reach(i+d, cell.z)
				}
				continue
			}
			r, c := i/cols, i%cols
			for k, d := range offset {
				if out.In(r+d8dr[k], c+d8dc[k]) {
					reach(i+d, cell.z)
				}
			}
		}
	}
}

// tileSet is a raster's row tiles, top to bottom. As a Ranger each
// relaxes its seams against the last snapshot.
type tileSet []fillTile

// relax runs rounds until no tile lowers a cell: snapshot the row across
// every seam, then let each tile relax against its snapshots. The loop
// stops on that flag and never compares values, so NaN cannot keep it
// going; a cell is written only to a strictly lower value, so it ends.
func (ts tileSet) relax() {
	if len(ts) < 2 {
		return
	}
	cols := ts[0].out.Cols
	for t := 1; t < len(ts); t++ {
		ts[t].above = make([]float64, cols)
		ts[t-1].below = make([]float64, cols)
	}
	for {
		for t := 1; t < len(ts); t++ {
			up := ts[t-1].out
			copy(ts[t].above, up.Data[len(up.Data)-cols:])
			copy(ts[t-1].below, ts[t].out.Data[:cols])
		}
		tensor.ParallelRange(len(ts), 1, ts)
		lowered := false
		for t := range ts {
			lowered = lowered || ts[t].lowered
		}
		if !lowered {
			return
		}
	}
}

func (ts tileSet) RunRange(lo, hi int) {
	for t := lo; t < hi; t++ {
		ts[t].relax()
	}
}

// relax lowers each cell of the tile's seam rows to f of the cells
// across the seam, as snapshotted, where that is lower, and spreads the
// lowering through the tile: a Dijkstra that writes a cell only to a
// strictly lower f of a neighbour. lowered reports whether it wrote any.
func (t *fillTile) relax() {
	out := t.out
	rows, cols := out.Rows, out.Cols
	t.lowered = false
	lower := func(i int, z float64) {
		if nz := fillStep(z, t.dem.Data[i]); nz < out.Data[i] {
			out.Data[i] = nz
			t.heap.push(floodCell{z: nz, i: int32(i)})
			t.lowered = true
		}
	}
	seam := func(across []float64, r int) {
		for c := 0; c < cols; c++ {
			for _, cc := range [3]int{c - 1, c, c + 1} {
				if cc >= 0 && cc < cols {
					lower(r*cols+c, across[cc])
				}
			}
		}
	}
	if t.above != nil {
		seam(t.above, 0)
	}
	if t.below != nil {
		seam(t.below, rows-1)
	}
	for len(t.heap) > 0 {
		cell := t.heap.pop()
		i := int(cell.i)
		if cell.z != out.Data[i] {
			continue // lowered again since it was queued
		}
		r, c := i/cols, i%cols
		for k := range d8dr {
			if out.In(r+d8dr[k], c+d8dc[k]) {
				lower(i+d8dr[k]*cols+d8dc[k], cell.z)
			}
		}
	}
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
