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

// maxPool2x2AVX2 runs the pool kernel over one plane. The assembly does
// no bounds checking: the largest indices it touches are the ones the
// scalar loop of MaxPool2x2 would bounds-check — dst[oh·ow − 1] and
// src[(2·oh − 1)·stride + 2·ow − 1] — and they are established here,
// written so that no product can overflow, before the kernel runs.
func maxPool2x2AVX2(dst, src []float32, oh, ow, stride int) {
	if oh < 0 || ow < 4 || ow > stride/2 || (oh > 0 && (len(dst)/ow < oh ||
		len(src) < 2*ow || (len(src)-2*ow)/stride < 2*oh-1)) {
		panic(fmt.Sprintf("tensor: max-pool kernel out of range: len(dst)=%d len(src)=%d output %dx%d, row stride %d",
			len(dst), len(src), oh, ow, stride))
	}
	maxPool2x2(unsafe.SliceData(dst), unsafe.SliceData(src), oh, ow, stride)
}
