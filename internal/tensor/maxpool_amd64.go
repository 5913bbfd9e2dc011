//go:build !purego

package tensor

import (
	"fmt"
	"unsafe"
)

// Implemented in maxpool_amd64.s.
//
//go:noescape
func maxPool2x2(dst, src *float32, oh, ow, stride int)

//go:noescape
func maxPool2x2Z(dst, src *float32, oh, ow, stride int)

// maxPool2x2Asm runs the pool kernel over one plane: sixteen outputs a
// step on ZMM where useAVX512 holds and ow ≥ 16, the YMM/XMM kernel
// otherwise. The assembly does no bounds checking: the largest indices
// it touches are the ones the scalar loop of MaxPool2x2 would
// bounds-check — dst[oh·ow − 1] and src[(2·oh − 1)·stride + 2·ow − 1] —
// and they are established here, written so that no product can
// overflow, before the kernel runs.
func maxPool2x2Asm(dst, src []float32, oh, ow, stride int) {
	if oh < 0 || ow < 4 || ow > stride/2 || (oh > 0 && (len(dst)/ow < oh ||
		len(src) < 2*ow || (len(src)-2*ow)/stride < 2*oh-1)) {
		panic(fmt.Sprintf("tensor: max-pool kernel out of range: len(dst)=%d len(src)=%d output %dx%d, row stride %d",
			len(dst), len(src), oh, ow, stride))
	}
	if useAVX512 && ow >= 16 {
		maxPool2x2Z(unsafe.SliceData(dst), unsafe.SliceData(src), oh, ow, stride)
	} else {
		maxPool2x2(unsafe.SliceData(dst), unsafe.SliceData(src), oh, ow, stride)
	}
}

//go:noescape
func maxBins(dst *float32, dstStride int, src *float32, srcStride, planes, w int, rows *int, oh int, cols *int, ow int)

// maxBinsAsm runs the bin kernel over planes whose every index MaxBins
// has established in range.
func maxBinsAsm(dst []float32, dstStride int, src []float32, srcStride, planes, w int, rows, cols []int) {
	maxBins(unsafe.SliceData(dst), dstStride, unsafe.SliceData(src), srcStride, planes, w,
		unsafe.SliceData(rows), len(rows)/2, unsafe.SliceData(cols), len(cols)/2)
}
