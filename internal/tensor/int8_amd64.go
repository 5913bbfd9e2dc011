//go:build !purego

package tensor

import (
	"fmt"
	"unsafe"
)

// Implemented in int8_amd64.s.

//go:noescape
func mulPanelInt8x16(dst *float32, pairs *int16, b *int8, corr *int32, scale, bias *float32, n, k int, relu bool)

//go:noescape
func mulPanelInt8x16Z(dst *float32, pairs *int16, b *int8, corr *int32, scale, bias *float32, n, k int, relu bool)

//go:noescape
func dotPanelInt8(acc *int32, pairs *int16, x *int8, k8 int)

//go:noescape
func dotPanelInt8Z(acc *int32, pairs *int16, x *int8, k8 int)

//go:noescape
func quantize8(dst *int8, src *float32, n8 int, invScale float32, zp int32)

// The assembly does no bounds checking. As with mulPanel4Asm, each
// wrapper below establishes the largest index of every slice its kernel
// will touch — the index expressions the scalar loops would
// bounds-check — written so that no product can overflow, and panics
// before the kernel runs.

// pairsOK reports whether panel pi exists and the
// pair layout is present (PackInt8 builds it only under useAVX2).
func (p *PackedInt8) pairsOK(pi int) bool {
	return pi >= 0 && pi < p.Panels() && len(p.pairs) == p.Panels()*p.pairStride()
}

// mulPanelAsm computes, with the YMM or (useAVX512) the ZMM kernel, the
// four dequantized output rows of full panel pi over all n ≥ kernelCols
// columns: c is the panel's four rows of the output, b the cols×n
// activation codes. The zero-point correction, the output scale, the
// bias add (+0 without a bias, as dequantRows adds) and the ReLU are
// fused into the kernel's store.
func (p *PackedInt8) mulPanelAsm(c []float32, b []int8, n, pi int, zp int32, outScale, bias []float32, relu bool) {
	k, r0 := p.cols, pi*panelRows
	if !p.pairsOK(pi) || r0+panelRows > p.rows || n < kernelCols || len(c)/panelRows < n ||
		(k > 0 && len(b)/k < n) || len(outScale) < r0+panelRows || (bias != nil && len(bias) < r0+panelRows) {
		panic(fmt.Sprintf("tensor: int8 panel kernel out of range: panel %d of %dx%d, len(c)=%d len(b)=%d len(pairs)=%d len(outScale)=%d len(bias)=%d n=%d",
			pi, p.rows, p.cols, len(c), len(b), len(p.pairs), len(outScale), len(bias), n))
	}
	var corr [panelRows]int32
	var bv [panelRows]float32
	for r := range corr {
		corr[r] = zp * p.rowSum[r0+r]
	}
	if bias != nil {
		copy(bv[:], bias[r0:])
	}
	pairs := unsafe.SliceData(p.pairs[pi*p.pairStride():])
	if useAVX512 {
		mulPanelInt8x16Z(unsafe.SliceData(c), pairs, unsafe.SliceData(b), &corr[0], unsafe.SliceData(outScale[r0:]), &bv[0], n, k, relu)
	} else {
		mulPanelInt8x16(unsafe.SliceData(c), pairs, unsafe.SliceData(b), &corr[0], unsafe.SliceData(outScale[r0:]), &bv[0], n, k, relu)
	}
}

// dotPanelAsm sums the leading terms of panel pi's four dot products
// against x into acc and returns how many terms that was: the largest
// multiple of 8 within cols. The caller adds the rest.
func (p *PackedInt8) dotPanelAsm(acc *[panelRows]int32, x []int8, pi int) int {
	if !p.pairsOK(pi) || len(x) < p.cols {
		panic(fmt.Sprintf("tensor: int8 dot kernel out of range: panel %d of %dx%d, len(x)=%d len(pairs)=%d",
			pi, p.rows, p.cols, len(x), len(p.pairs)))
	}
	k8 := p.cols / 8
	if useAVX512 {
		dotPanelInt8Z(&acc[0], unsafe.SliceData(p.pairs[pi*p.pairStride():]), unsafe.SliceData(x), k8)
	} else {
		dotPanelInt8(&acc[0], unsafe.SliceData(p.pairs[pi*p.pairStride():]), unsafe.SliceData(x), k8)
	}
	return k8 * 8
}

// quantizeAVX2 quantizes the leading elements of src into dst and
// returns how many that was: the largest multiple of 8 within len(src).
// The caller quantizes the rest.
func quantizeAVX2(dst []int8, src []float32, invScale float32, zp int32) int {
	if len(dst) < len(src) {
		panic(fmt.Sprintf("tensor: QuantizeSlice got %d codes of room for %d values", len(dst), len(src)))
	}
	n8 := len(src) / 8
	quantize8(unsafe.SliceData(dst), unsafe.SliceData(src), n8, invScale, zp)
	return n8 * 8
}
