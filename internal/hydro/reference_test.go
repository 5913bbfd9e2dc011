package hydro

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"
)

// The implementations this package shipped before the sweep's raster
// preparation was rewritten (container/heap priority flood, sort-based
// accumulation and Strahler ordering, bounds-checked D8), kept verbatim as
// oracles: the replacements must agree with them bit for bit.

type refFloodCell struct {
	z    float64
	r, c int
}

// refFloodHeap is the container/heap queue FillDepressions shipped with.
// tie, when set, decides between cells of equal z by raster index; nil
// leaves them to the heap's layout, as the shipped implementation did.
type refFloodHeap struct {
	cells []refFloodCell
	cols  int
	tie   func(a, b int) bool
}

func (h *refFloodHeap) Len() int { return len(h.cells) }
func (h *refFloodHeap) Less(i, j int) bool {
	a, b := h.cells[i], h.cells[j]
	if a.z != b.z || h.tie == nil {
		return a.z < b.z
	}
	return h.tie(a.r*h.cols+a.c, b.r*h.cols+b.c)
}
func (h *refFloodHeap) Swap(i, j int)      { h.cells[i], h.cells[j] = h.cells[j], h.cells[i] }
func (h *refFloodHeap) Push(x interface{}) { h.cells = append(h.cells, x.(refFloodCell)) }
func (h *refFloodHeap) Pop() interface{} {
	old := h.cells
	n := len(old)
	x := old[n-1]
	h.cells = old[:n-1]
	return x
}

func refFillDepressions(dem *Grid) *Grid { return refFillDepressionsTies(dem, nil) }

func refFillDepressionsTies(dem *Grid, tie func(a, b int) bool) *Grid {
	const eps = 1e-6
	out := dem.Clone()
	visited := make([]bool, len(dem.Data))
	h := &refFloodHeap{cols: dem.Cols, tie: tie}
	heap.Init(h)
	push := func(r, c int) {
		visited[r*dem.Cols+c] = true
		heap.Push(h, refFloodCell{z: out.At(r, c), r: r, c: c})
	}
	for c := 0; c < dem.Cols; c++ {
		push(0, c)
		if dem.Rows > 1 {
			push(dem.Rows-1, c)
		}
	}
	for r := 1; r < dem.Rows-1; r++ {
		push(r, 0)
		if dem.Cols > 1 {
			push(r, dem.Cols-1)
		}
	}
	for h.Len() > 0 {
		cell := heap.Pop(h).(refFloodCell)
		for i := 0; i < 8; i++ {
			nr, nc := cell.r+d8dr[i], cell.c+d8dc[i]
			if !dem.In(nr, nc) || visited[nr*dem.Cols+nc] {
				continue
			}
			visited[nr*dem.Cols+nc] = true
			z := out.At(nr, nc)
			if z <= cell.z {
				z = cell.z + eps
				out.Set(nr, nc, z)
			}
			heap.Push(h, refFloodCell{z: z, r: nr, c: nc})
		}
	}
	return out
}

func refD8FlowDirections(dem *Grid) *FlowDir {
	f := &FlowDir{Rows: dem.Rows, Cols: dem.Cols, Dir: make([]int8, dem.Rows*dem.Cols)}
	for r := 0; r < dem.Rows; r++ {
		for c := 0; c < dem.Cols; c++ {
			z := dem.At(r, c)
			best := int8(PitDir)
			bestSlope := 0.0
			offGrid := false
			for i := 0; i < 8; i++ {
				nr, nc := r+d8dr[i], c+d8dc[i]
				if !dem.In(nr, nc) {
					offGrid = true
					continue
				}
				slope := (z - dem.At(nr, nc)) / dist8(i)
				if slope > bestSlope {
					bestSlope = slope
					best = int8(i)
				}
			}
			if best == PitDir && offGrid {
				best = EdgeDir
			}
			f.Dir[r*f.Cols+c] = best
		}
	}
	return f
}

func refFlowAccumulation(dem *Grid, dirs *FlowDir) *Grid {
	acc := NewGrid(dem.Rows, dem.Cols, dem.CellSize)
	for i := range acc.Data {
		acc.Data[i] = 1
	}
	order := make([]int, len(dem.Data))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return dem.Data[order[a]] > dem.Data[order[b]] })
	for _, idx := range order {
		r, c := idx/dem.Cols, idx%dem.Cols
		d := dirs.At(r, c)
		if d < 0 {
			continue
		}
		nr, nc := r+d8dr[d], c+d8dc[d]
		acc.Add(nr, nc, acc.At(r, c))
	}
	return acc
}

func refStrahlerOrder(dem *Grid, dirs *FlowDir, streamMask []bool) []int {
	n := dem.Rows * dem.Cols
	order := make([]int, n)
	var cells []int
	for i := 0; i < n; i++ {
		if streamMask[i] {
			cells = append(cells, i)
		}
	}
	sort.Slice(cells, func(a, b int) bool { return dem.Data[cells[a]] > dem.Data[cells[b]] })
	maxIn := make([]int, n)
	cntMaxIn := make([]int, n)
	for _, i := range cells {
		w := 1
		if maxIn[i] > 0 {
			w = maxIn[i]
			if cntMaxIn[i] > 1 {
				w++
			}
		}
		order[i] = w
		r, c := i/dem.Cols, i%dem.Cols
		d := dirs.At(r, c)
		if d < 0 {
			continue
		}
		j := (r+d8dr[d])*dem.Cols + (c + d8dc[d])
		if !streamMask[j] {
			continue
		}
		switch {
		case w > maxIn[j]:
			maxIn[j] = w
			cntMaxIn[j] = 1
		case w == maxIn[j]:
			cntMaxIn[j]++
		}
	}
	return order
}

// differentialDEMs are the terrains the old and new implementations are
// compared on: rough and smooth random relief, heavy ties (quantised and
// all-flat), a plateau with a pit, and degenerate shapes.
func differentialDEMs() map[string]*Grid {
	rng := rand.New(rand.NewSource(42))
	random := func(rows, cols int, f func(r, c int) float64) *Grid {
		g := NewGrid(rows, cols, 1)
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				g.Set(r, c, f(r, c))
			}
		}
		return g
	}
	plateau := random(24, 31, func(r, c int) float64 { return 10 })
	plateau.Set(12, 15, 3) // a pit in the middle of the plateau
	plateau.Set(12, 16, 3)
	plateau.Set(5, 5, 12) // and a bump
	return map[string]*Grid{
		"rough":      random(48, 37, func(r, c int) float64 { return rng.Float64() * 5 }),
		"tilted":     random(40, 40, func(r, c int) float64 { return float64(40-c) + rng.Float64()*2 }),
		"quantised":  random(33, 45, func(r, c int) float64 { return float64(rng.Intn(4)) }),
		"flat":       random(20, 20, func(r, c int) float64 { return 7 }),
		"plateau":    plateau,
		"single_row": random(1, 50, func(r, c int) float64 { return float64(rng.Intn(6)) }),
		"single_col": random(50, 1, func(r, c int) float64 { return float64(rng.Intn(6)) }),
		"two_by_two": random(2, 2, func(r, c int) float64 { return float64(r + c) }),
		"one_cell":   random(1, 1, func(r, c int) float64 { return 1 }),
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// The heap owes the flood its cells back in nondecreasing z — the same
// multiset out as went in, never a smaller z after a larger — from pushes,
// from heapify over an arbitrary slice, and with pops interleaved.
func TestFloodPopsNondecreasing(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h floodHeap
	in, out := map[floodCell]int{}, map[floodCell]int{}
	last := 0.0
	pop := func() {
		x := h.pop()
		if x.z < last {
			t.Fatalf("popped z=%v after z=%v", x.z, last)
		}
		last = x.z
		out[x]++
	}
	for round := 0; round < 20; round++ {
		// A level's worth of cells arrives as an unordered slice ...
		for n := rng.Intn(200); n > 0; n-- {
			x := floodCell{z: last + float64(rng.Intn(8)), i: int32(rng.Intn(50))} // quantised: many ties
			h = append(h, x)
			in[x]++
		}
		h.heapify()
		// ... and is drained while the flood pushes cells no lower than
		// the one it just popped.
		for len(h) > 0 {
			pop()
			if rng.Intn(3) == 0 {
				x := floodCell{z: last + float64(rng.Intn(3)), i: int32(rng.Intn(50))}
				h.push(x)
				in[x]++
			}
		}
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("cells popped differ from cells queued: %d kinds in, %d out", len(in), len(out))
	}
}

// floodEdgeDEMs are the rasters that stress the level arithmetic of the
// flood queue rather than the flood: degenerate and extreme elevation
// ranges, an outlier that squeezes every other cell into one level, and
// road embankments over smooth relief (the generator's w.DEM).
func floodEdgeDEMs() map[string]*Grid {
	rng := rand.New(rand.NewSource(11))
	fill := func(rows, cols int, f func(r, c int) float64) *Grid {
		g := NewGrid(rows, cols, 1)
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				g.Set(r, c, f(r, c))
			}
		}
		return g
	}
	rough := func(scale float64) *Grid {
		return fill(40, 33, func(r, c int) float64 { return rng.Float64() * scale })
	}
	nodata := rough(20)
	nodata.Set(17, 9, -9999)
	return map[string]*Grid{
		"range_1e-300": rough(1e-300),
		"range_1e300":  rough(1e300),
		"range_inf":    fill(30, 30, func(r, c int) float64 { return (rng.Float64()*2 - 1) * math.MaxFloat64 }), // hi − lo overflows
		"nodata":       nodata,
		"embanked": fill(96, 120, func(r, c int) float64 {
			z := 14*(1-float64(c)/120) + 3*math.Sin(float64(r)/9)*math.Cos(float64(c)/7) + rng.Float64()*0.05
			if r%32 < 3 || c%40 < 3 {
				z += 2.5
			}
			return z
		}),
		"two_rows": fill(2, 40, func(r, c int) float64 { return float64(rng.Intn(5)) }),
		"two_cols": fill(40, 2, func(r, c int) float64 { return float64(rng.Intn(5)) }),
	}
}

func TestFillDepressionsMatchesReference(t *testing.T) {
	dems := differentialDEMs()
	for name, dem := range floodEdgeDEMs() {
		dems[name] = dem
	}
	for name, dem := range dems {
		before := dem.Clone()
		got, want := FillDepressions(dem), refFillDepressions(dem)
		if !sameBits(got.Data, want.Data) {
			t.Errorf("%s: filled surface differs from the container/heap implementation", name)
		}
		if !sameBits(dem.Data, before.Data) {
			t.Errorf("%s: FillDepressions modified its input", name)
		}
	}
}

// The filled surface is a least fixed point (see FillDepressions), so it
// cannot depend on which of several equal-z cells the queue hands out
// first. Hold the oracle to that under three adversarial tie orders, on
// rasters made of ties: quantised levels whose sub-steps are exact
// multiples of the flood's eps, so raised cells collide bit for bit with
// natural ones.
func TestFillDepressionsIgnoresTieOrder(t *testing.T) {
	dems := differentialDEMs()
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 320; i++ {
		g := NewGrid(1+rng.Intn(24), 1+rng.Intn(24), 1)
		levels, steps := 1+rng.Intn(4), 1+rng.Intn(4)
		for j := range g.Data {
			z := float64(rng.Intn(levels))
			for k := rng.Intn(steps); k > 0; k-- {
				z += 1e-6 // as FillDepressions raises: z + eps, one addition at a time
			}
			g.Data[j] = z
		}
		dems[fmt.Sprintf("ties_%d", i)] = g
	}
	ties := map[string]func(a, b int) bool{
		"larger_index":  func(a, b int) bool { return a > b },
		"smaller_index": func(a, b int) bool { return a < b },
		"hashed":        func(a, b int) bool { return uint32(a)*2654435761 < uint32(b)*2654435761 },
	}
	for name, dem := range dems {
		got := FillDepressions(dem)
		for order, tie := range ties {
			if want := refFillDepressionsTies(dem, tie); !sameBits(got.Data, want.Data) {
				t.Errorf("%s: filled surface differs from the oracle popping ties by %s", name, order)
			}
		}
	}
}

// fillTiles is FillDepressions over k row tiles (fewer when the raster
// has fewer rows), flooded one after another so that the count does not
// depend on the worker pool.
func fillTiles(dem *Grid, k int) *Grid {
	f := newTiledFill(dem, k)
	for t := range f.tiles {
		f.RunRange(t, t+1)
	}
	return f.finish()
}

// maxFillTiles is the largest tile count the tests cut a raster into:
// more than this machine's workers, and tiles of one to three rows on
// the small rasters.
const maxFillTiles = 8

// Any tile count gives the one least surface (see FillDepressions), so
// every count must match the container/heap flood bit for bit.
func TestFillTilesMatchesReference(t *testing.T) {
	dems := differentialDEMs()
	for name, dem := range floodEdgeDEMs() {
		dems[name] = dem
	}
	for name, dem := range dems {
		before := dem.Clone()
		want := refFillDepressions(dem)
		for k := 1; k <= maxFillTiles; k++ {
			if got := fillTiles(dem, k); !sameBits(got.Data, want.Data) {
				t.Errorf("%s: %d tiles: filled surface differs from the container/heap implementation", name, k)
			}
		}
		if !sameBits(dem.Data, before.Data) {
			t.Errorf("%s: fillTiles modified its input", name)
		}
	}
}

// withinDeadline fails the test if f has not returned after d, so that
// a flood that never settles fails in seconds rather than at the
// package timeout.
func withinDeadline(t *testing.T, d time.Duration, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s: still running after %v", what, d)
	}
}

// Values are unspecified on a raster holding NaN or ±Inf, but neither the
// level arithmetic nor the seam relaxation may panic, index out of range
// or loop on one, at any tile count.
func TestFillDepressionsSurvivesNonFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, bad := range [][]float64{{math.NaN()}, {math.Inf(1)}, {math.Inf(-1)}, {math.NaN(), math.Inf(1), math.Inf(-1)}} {
		for _, first := range []bool{false, true} {
			g := NewGrid(19, 23, 1)
			for i := range g.Data {
				g.Data[i] = rng.Float64() * 10
				if rng.Intn(12) == 0 {
					g.Data[i] = bad[rng.Intn(len(bad))]
				}
			}
			if first {
				g.Data[0] = bad[0] // MinMax starts from cell 0
			}
			for k := 1; k <= maxFillTiles; k++ {
				what := fmt.Sprintf("%v (first %v), %d tiles", bad, first, k)
				withinDeadline(t, 5*time.Second, what, func() {
					if out := fillTiles(g, k); len(out.Data) != len(g.Data) {
						t.Errorf("%s: filled raster has %d cells, want %d", what, len(out.Data), len(g.Data))
					}
				})
			}
			withinDeadline(t, 5*time.Second, "FillDepressions", func() { FillDepressions(g) })
		}
	}
}

func TestD8FlowDirectionsMatchesReference(t *testing.T) {
	dems := differentialDEMs()
	// Cells the pruned comparison must treat as the divided one does:
	// NaN and ±Inf drops and slopes, and −0 beside +0.
	rng := rand.New(rand.NewSource(17))
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0}
	for s, v := range special {
		g := NewGrid(21, 26, 1)
		for i := range g.Data {
			g.Data[i] = float64(rng.Intn(3)) * 1e-300 // ties and subnormal slopes
			if rng.Intn(6) == 0 {
				g.Data[i] = special[rng.Intn(len(special))]
			}
		}
		g.Data[len(g.Data)/2] = v
		dems[fmt.Sprintf("special_%d", s)] = g
	}
	for name, dem := range dems {
		for _, g := range []*Grid{dem, FillDepressions(dem)} {
			if got, want := D8FlowDirections(g), refD8FlowDirections(g); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: D8 directions differ from the bounds-checked implementation", name)
			}
		}
	}
}

// The in-degree pass must equal the elevation-sorted one on filled DEMs
// (the generator's use) and on raw ones (ConnectivityScore's use).
func TestFlowAccumulationMatchesReference(t *testing.T) {
	for name, dem := range differentialDEMs() {
		for kind, g := range map[string]*Grid{"raw": dem, "filled": FillDepressions(dem)} {
			dirs := D8FlowDirections(g)
			got, want := FlowAccumulation(g, dirs), refFlowAccumulation(g, dirs)
			if !sameBits(got.Data, want.Data) {
				t.Errorf("%s/%s: accumulation differs from the sort-based implementation", name, kind)
			}
		}
	}
}

// D8FlowDirections never produces a cycle, but FlowAccumulation is
// exported and takes any FlowDir. On a cycle it must terminate, and the
// documented result is that the cells of the cycle keep only what acyclic
// tributaries drained into them.
func TestFlowAccumulationTerminatesOnCycle(t *testing.T) {
	// One row of six cells: 0 → 1 → 2 ⇄ 3, and 5 → 4 → off the edge.
	// East is direction 0, west is direction 4.
	dem := NewGrid(1, 6, 1)
	dirs := &FlowDir{Rows: 1, Cols: 6, Dir: []int8{0, 0, 0, 4, EdgeDir, 4}}
	got := FlowAccumulation(dem, dirs).Data
	want := []float64{1, 2, 3, 1, 2, 1}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("accumulation on a cyclic FlowDir = %v, want %v", got, want)
	}
}

func TestStrahlerOrderMatchesReference(t *testing.T) {
	for name, dem := range differentialDEMs() {
		g := FillDepressions(dem)
		dirs := D8FlowDirections(g)
		acc := FlowAccumulation(g, dirs)
		for _, threshold := range []float64{1, 3, 12} {
			mask := ExtractStreams(acc, threshold)
			if got, want := StrahlerOrder(g, dirs, mask), refStrahlerOrder(g, dirs, mask); !reflect.DeepEqual(got, want) {
				t.Errorf("%s (threshold %v): Strahler orders differ from the sort-based implementation", name, threshold)
			}
		}
	}
}

// Dilate must equal the definition it replaces in the renderer: a cell is
// set iff the (2r+1)² neighbourhood, clipped at the raster edge, holds a
// set cell.
func TestDilateMatchesNeighbourhoodScan(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, tc := range []struct{ rows, cols, r int }{{17, 23, 3}, {9, 40, 1}, {30, 7, 10}, {1, 12, 2}, {12, 1, 2}, {8, 8, 0}} {
		t.Run(fmt.Sprintf("%dx%d_r%d", tc.rows, tc.cols, tc.r), func(t *testing.T) {
			mask := make([]bool, tc.rows*tc.cols)
			for i := range mask {
				mask[i] = rng.Intn(25) == 0
			}
			// Corners and edges are where a clipped neighbourhood differs.
			mask[0], mask[len(mask)-1] = true, true
			got := Dilate(mask, tc.rows, tc.cols, tc.r)
			for r := 0; r < tc.rows; r++ {
				for c := 0; c < tc.cols; c++ {
					want := false
					for rr := max(0, r-tc.r); rr <= min(tc.rows-1, r+tc.r); rr++ {
						for cc := max(0, c-tc.r); cc <= min(tc.cols-1, c+tc.r); cc++ {
							want = want || mask[rr*tc.cols+cc]
						}
					}
					if got[r*tc.cols+c] != want {
						t.Fatalf("cell (%d,%d): dilated %v, scan %v", r, c, got[r*tc.cols+c], want)
					}
				}
			}
		})
	}
}
