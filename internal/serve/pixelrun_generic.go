//go:build !amd64 || purego

package serve

// This build has no pixel-run kernel: tensor.ByteKernelMissing names
// the build, usePixelRun stays false and pixelsValue never calls it.

func pixelRunKernel(dst *float32, room int, b *byte, n int) (k, adv int) {
	panic("serve: no pixel-run kernel in this build")
}
