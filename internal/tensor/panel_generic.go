//go:build !amd64 || purego

package tensor

// This build has no assembly micro-kernels: useAVX2 and useAVX512 stay
// false and the scalar loops in packed.go and quant.go serve every call.

func haveAVX2() bool { return false }

func avx512Missing() string { return "assembly kernels (purego build or not amd64)" }

// ByteKernelMissing is the amd64 probe's answer for a build without
// assembly: the AVX-512 byte kernels outside this package never run.
func ByteKernelMissing() string { return avx512Missing() }

func mulPanel4Asm(c, pan, b, bias []float32, n, k, c0, c1 int, relu bool) {
	panic("tensor: no assembly panel kernel in this build")
}

func mulPanel4FlatAsm(c, pan, b []float32, off []int, bias []float32, n, c0, c1 int, relu bool) {
	panic("tensor: no assembly panel kernel in this build")
}

func maxPool2x2Asm(dst, src []float32, oh, ow, stride int) {
	panic("tensor: no AVX2 max-pool kernel in this build")
}

func (p *PackedFC) mulAsm(y, x []float32, n int, bias []float32, relu bool, g0, g1 int) {
	panic("tensor: no assembly FC kernel in this build")
}

func fcRowsAsm(y, pan, x, bias []float32, k, groups int, relu bool) {
	panic("tensor: no assembly FC kernel in this build")
}

func fcTileAsm(y, pan, x, bias []float32, k, ystride, tile int, relu bool) {
	panic("tensor: no assembly FC kernel in this build")
}

func (p *PackedInt8) mulPanelAsm(c []float32, b []int8, n, pi int, zp int32, outScale, bias []float32, relu bool) {
	panic("tensor: no AVX2 int8 panel kernel in this build")
}

func (p *PackedInt8) dotPanelAsm(acc *[panelRows]int32, x []int8, pi int) int {
	panic("tensor: no AVX2 int8 dot kernel in this build")
}

func quantizeAVX2(dst []int8, src []float32, invScale float32, zp int32) int {
	panic("tensor: no AVX2 quantize kernel in this build")
}

func maxBinsAsm(dst []float32, dstStride int, src []float32, srcStride, planes, w int, rows, cols []int) {
	panic("tensor: no assembly bin kernel in this build")
}
