//go:build !amd64 || purego

package tensor

// This build has no assembly micro-kernels: useAVX2 stays false and the
// scalar loops in packed.go serve every call.

func haveAVX2() bool { return false }

func mulPanel4AVX2(c, pan, b, bias []float32, n, k, c0, c1 int, relu bool) {
	panic("tensor: no AVX2 panel kernel in this build")
}

func dotPanels4AVX2(dst, pan, x, bias []float32, k int, relu bool) {
	panic("tensor: no AVX2 dot kernel in this build")
}
