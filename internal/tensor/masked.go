package tensor

// Masked-convolution primitives: an im2col that lowers only a band of
// output rows (Im2ColSliceRows, im2col.go), a packed GEMM that computes
// only a band of output columns (Packed.MulPanelsColsInto, packed.go) —
// both the ranged forms of the one loop nest their full-range
// counterparts share — and the fill below for the bands that are
// skipped. Together they let a conv layer skip the lowering and matmul
// work for spatial blocks whose input activation energy is negligible
// (the LASNet-style spatial masking of the dynamic inference path).

// BiasFillCols writes the convolution's contribution for an all-zero
// receptive-field band: every output element of rows [0, rows) in
// columns [c0, c1) of the rows×n row-major dst becomes bias[row]
// (clamped by ReLU when set). This is what a masked-out spatial block's
// output must hold so downstream layers see a consistent feature map.
func BiasFillCols(dst []float32, rows, n int, bias []float32, relu bool, c0, c1 int) {
	if c0 < 0 {
		c0 = 0
	}
	if c1 > n {
		c1 = n
	}
	if c0 >= c1 {
		return
	}
	for r := 0; r < rows; r++ {
		var bv float32
		if bias != nil {
			bv = bias[r]
		}
		if relu && bv < 0 {
			bv = 0
		}
		row := dst[r*n+c0 : r*n+c1]
		for j := range row {
			row[j] = bv
		}
	}
}
