package hydro

// StrahlerOrder computes the Strahler stream order of every stream cell:
// headwater streams are order 1; when two streams of equal order w meet,
// the downstream order becomes w+1; otherwise the maximum order carries
// through. Non-stream cells get order 0. Like FlowAccumulation it needs
// acyclic dirs and reads dem only for its geometry.
func StrahlerOrder(dem *Grid, dirs *FlowDir, streamMask []bool) []int {
	n := dem.Rows * dem.Cols
	order := make([]int, n)
	// receiver returns the stream cell that stream cell i drains into.
	receiver := func(i int) (int, bool) {
		d := dirs.Dir[i]
		if d < 0 {
			return 0, false
		}
		j := i + d8dr[d]*dem.Cols + d8dc[d]
		return j, streamMask[j]
	}

	// Resolve every upstream contributor before its receiver: pending[i]
	// counts the stream cells draining into i that have no order yet.
	const settled = 0xff
	pending := make([]uint8, n)
	for i := range pending {
		if !streamMask[i] {
			pending[i] = settled
		} else if j, ok := receiver(i); ok {
			pending[j]++
		}
	}
	// Per-cell incoming contributor orders.
	maxIn := make([]int, n)
	cntMaxIn := make([]int, n)
	for head := range pending {
		for i := head; pending[i] == 0; {
			pending[i] = settled
			w := 1
			if maxIn[i] > 0 {
				w = maxIn[i]
				if cntMaxIn[i] > 1 {
					w++
				}
			}
			order[i] = w
			j, ok := receiver(i)
			if !ok {
				break
			}
			switch {
			case w > maxIn[j]:
				maxIn[j] = w
				cntMaxIn[j] = 1
			case w == maxIn[j]:
				cntMaxIn[j]++
			}
			pending[j]--
			i = j
		}
	}
	return order
}

// MaxOrder returns the highest Strahler order present.
func MaxOrder(order []int) int {
	best := 0
	for _, w := range order {
		if w > best {
			best = w
		}
	}
	return best
}

// Basins labels every cell with the ID of the terminal cell (edge outflow
// or pit) its flow path reaches, delineating drainage basins. Labels are
// the terminal cell's flat index.
func Basins(dirs *FlowDir) []int {
	n := dirs.Rows * dirs.Cols
	label := make([]int, n)
	for i := range label {
		label[i] = -1
	}
	// Iterative path-following with path compression: walk downstream to a
	// terminal or an already-labeled cell, then label the whole path.
	var path []int
	for i := 0; i < n; i++ {
		if label[i] >= 0 {
			continue
		}
		path = path[:0]
		cur := i
		root := -1
		for {
			if label[cur] >= 0 {
				root = label[cur]
				break
			}
			path = append(path, cur)
			r, c := cur/dirs.Cols, cur%dirs.Cols
			d := dirs.At(r, c)
			if d < 0 {
				root = cur // terminal: its own basin root
				break
			}
			cur = (r+d8dr[d])*dirs.Cols + (c + d8dc[d])
		}
		for _, p := range path {
			label[p] = root
		}
	}
	return label
}

// BasinCount returns the number of distinct basins.
func BasinCount(labels []int) int {
	seen := map[int]bool{}
	for _, l := range labels {
		seen[l] = true
	}
	return len(seen)
}

// LargestBasinFrac returns the fraction of cells in the largest basin — a
// compact connectivity summary (a well-connected watershed drains almost
// everything through a few outlets; digital dams fragment it).
func LargestBasinFrac(labels []int) float64 {
	if len(labels) == 0 {
		return 0
	}
	counts := map[int]int{}
	best := 0
	for _, l := range labels {
		counts[l]++
		if counts[l] > best {
			best = counts[l]
		}
	}
	return float64(best) / float64(len(labels))
}
