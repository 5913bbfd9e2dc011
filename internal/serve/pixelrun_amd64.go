//go:build !purego

package serve

// pixelRunKernel is pixelRun's AVX-512 loop (pixelrun_amd64.s). It reads
// b[0:n] in 64-byte windows and writes at most room float32s at dst; it
// returns at once unless n ≥ 64 and room ≥ 8. k is the floats written,
// adv the bytes consumed. Only a CPU for which tensor.ByteKernelMissing
// returns "" may run it.
//
//go:noescape
func pixelRunKernel(dst *float32, room int, b *byte, n int) (k, adv int)
