package hydro

// Dilate expands a row-major boolean mask by Chebyshev radius r using two
// separable passes (horizontal then vertical), O(rows·cols·r) total: a
// cell of the result is set iff the mask has a set cell within r rows and
// r columns of it.
func Dilate(mask []bool, rows, cols, r int) []bool {
	h := make([]bool, len(mask))
	for row := 0; row < rows; row++ {
		base := row * cols
		for c := 0; c < cols; c++ {
			if !mask[base+c] {
				continue
			}
			lo, hi := max(0, c-r), min(cols-1, c+r)
			for cc := lo; cc <= hi; cc++ {
				h[base+cc] = true
			}
		}
	}
	out := make([]bool, len(mask))
	for row := 0; row < rows; row++ {
		base := row * cols
		for c := 0; c < cols; c++ {
			if !h[base+c] {
				continue
			}
			lo, hi := max(0, row-r), min(rows-1, row+r)
			for rr := lo; rr <= hi; rr++ {
				out[rr*cols+c] = true
			}
		}
	}
	return out
}
