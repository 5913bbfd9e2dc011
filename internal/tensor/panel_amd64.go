//go:build !purego

package tensor

import (
	"fmt"
	"slices"
	"unsafe"
)

// Implemented in panel_amd64.s.

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

//go:noescape
func mulPanel4x16(dst, pan, b, bias *float32, off *int, n, k, c0, c1 int, relu bool)

//go:noescape
func mulPanel4x32Z(dst, pan, b, bias *float32, off *int, n, k, c0, c1 int, relu bool)

//go:noescape
func fcRowsY(y, pan, x, bias *float32, k, groups int, relu bool)

//go:noescape
func fcRowsZ(y, pan, x, bias *float32, k, groups int, relu bool)

//go:noescape
func fcTileZ(y, pan, x, bias *float32, k, ystride, samples int, relu bool)

// haveAVX2 reports whether the micro-kernels may run: the CPU has AVX
// and AVX2, and the OS saves and restores the YMM state (OSXSAVE set and
// XCR0 bits 1 and 2, SSE and AVX state, both enabled).
func haveAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, c, _ := cpuid(1, 0); c&osxsave == 0 || c&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	const avx2 = 1 << 5
	_, b, _, _ := cpuid(7, 0)
	return b&avx2 != 0
}

// avx512Missing names the first CPUID or XCR0 bit the ZMM kernels need
// that this CPU or OS does not report, or returns "" when they may run:
// AVX512F and AVX512BW (leaf 7, EBX bits 16 and 30), and the OS saving
// the SSE, AVX, opmask and both upper ZMM states (XCR0 bits 1, 2, 5, 6
// and 7). It is only asked once haveAVX2 holds, so OSXSAVE is known.
func avx512Missing() string {
	if xcr0, _ := xgetbv(); xcr0&0xe6 != 0xe6 {
		return fmt.Sprintf("XCR0 bits 1, 2, 5, 6 and 7 (opmask and ZMM state saved by the OS; XCR0 = %#x)", xcr0)
	}
	const avx512f, avx512bw = 1 << 16, 1 << 30
	_, b, _, _ := cpuid(7, 0)
	switch {
	case b&avx512f == 0:
		return "AVX512F (CPUID leaf 7, EBX bit 16)"
	case b&avx512bw == 0:
		return "AVX512BW (CPUID leaf 7, EBX bit 30)"
	}
	return ""
}

// ByteKernelMissing names the first CPUID or XCR0 bit that the AVX-512
// byte kernels outside this package (internal/serve's pixel decoder)
// need and this CPU or OS does not report, or returns "" when they may
// run: everything the ZMM kernels here need (haveAVX2, avx512Missing),
// and AVX512DQ, AVX512_VBMI, AVX512_VBMI2, BMI1, BMI2 and POPCNT.
func ByteKernelMissing() string {
	if !haveAVX2() {
		return "AVX2 (CPUID leaf 7, EBX bit 5) with OSXSAVE and the YMM state"
	}
	if m := avx512Missing(); m != "" {
		return m
	}
	const (
		bmi1, bmi2, avx512dq = 1 << 3, 1 << 8, 1 << 17 // leaf 7, EBX
		vbmi, vbmi2          = 1 << 1, 1 << 6          // leaf 7, ECX
		popcnt               = 1 << 23                 // leaf 1, ECX
	)
	_, b, c, _ := cpuid(7, 0)
	_, _, c1, _ := cpuid(1, 0)
	switch {
	case b&avx512dq == 0:
		return "AVX512DQ (CPUID leaf 7, EBX bit 17)"
	case c&vbmi == 0:
		return "AVX512_VBMI (CPUID leaf 7, ECX bit 1)"
	case c&vbmi2 == 0:
		return "AVX512_VBMI2 (CPUID leaf 7, ECX bit 6)"
	case b&bmi1 == 0:
		return "BMI1 (CPUID leaf 7, EBX bit 3)"
	case b&bmi2 == 0:
		return "BMI2 (CPUID leaf 7, EBX bit 8)"
	case c1&popcnt == 0:
		return "POPCNT (CPUID leaf 1, ECX bit 23)"
	}
	return ""
}

// mulPanel4Asm computes columns [c0, c1) of one full panel's four
// output rows with the assembly micro-kernel, bias add and ReLU fused
// into its store: c holds the panel's four rows of the n-column output,
// pan its 4·k packed weights, b the k×n right-hand side, bias (nil or
// four entries) the panel's own biases. Under useAVX512 that is the ZMM
// kernel (4×32 blocks, 4×16 for the last 16 or fewer columns and for
// bands under 32), otherwise the YMM 4×16 one. The band must be at
// least kernelCols wide; a ragged tail is covered by one more block
// ending at c1, which overlaps the block before it — the kernels
// overwrite, so computing a column twice stores the same bits twice.
//
// The assembly does no bounds checking. Every address it touches is one
// of the index expressions the scalar loops (mulPanel4, epilogue) would
// bounds-check — c[3n+c1-1], pan[4k-1], b[(k-1)n+c1-1], bias[3] are the
// largest — so they are established here, in Go, written so that no
// product can overflow, and a violation panics before the kernel runs.
func mulPanel4Asm(c, pan, b, bias []float32, n, k, c0, c1 int, relu bool) {
	if c0 < 0 || c1-c0 < kernelCols || c1 > n || k < 0 ||
		n > len(c) || len(c) < (panelRows-1)*n+c1 ||
		k > len(pan)/panelRows ||
		(k > 0 && (len(b) < c1 || (len(b)-c1)/n < k-1)) ||
		(bias != nil && len(bias) < panelRows) {
		panic(fmt.Sprintf("tensor: panel kernel out of range: len(c)=%d len(pan)=%d len(b)=%d len(bias)=%d n=%d k=%d cols [%d,%d)",
			len(c), len(pan), len(b), len(bias), n, k, c0, c1))
	}
	mulPanel4Kernel(unsafe.SliceData(c), unsafe.SliceData(pan), unsafe.SliceData(b), unsafe.SliceData(bias), nil, n, k, c0, c1, relu)
}

// mulPanel4FlatAsm is mulPanel4Asm with the right-hand side addressed
// through an offset table: row kk of it starts at b[off[kk]], k is
// len(off), and n is the row stride of c alone. The kernel reads
// b[off[kk]+j] for j < c1, so beside mulPanel4Asm's conditions on c,
// pan and bias this establishes 0 ≤ off[kk] ≤ len(b) − c1 for every
// term, one comparison each, before the call.
func mulPanel4FlatAsm(c, pan, b []float32, off []int, bias []float32, n, c0, c1 int, relu bool) {
	k := len(off)
	ok := c0 >= 0 && c1-c0 >= kernelCols && c1 <= n && c1 <= len(b) &&
		n <= len(c) && len(c) >= (panelRows-1)*n+c1 &&
		k <= len(pan)/panelRows &&
		(bias == nil || len(bias) >= panelRows)
	if ok {
		room := len(b) - c1
		for _, o := range off {
			if o < 0 || o > room {
				ok = false
			}
		}
	}
	if !ok {
		panic(fmt.Sprintf("tensor: flat panel kernel out of range: len(c)=%d len(pan)=%d len(b)=%d len(bias)=%d n=%d k=%d positions [%d,%d)",
			len(c), len(pan), len(b), len(bias), n, k, c0, c1))
	}
	mulPanel4Kernel(unsafe.SliceData(c), unsafe.SliceData(pan), unsafe.SliceData(b), unsafe.SliceData(bias), unsafe.SliceData(off), n, k, c0, c1, relu)
}

// mulPanel4Kernel is the one ISA choice of the fp32 panel: both kernels
// take the same checked arguments and store the same bits.
func mulPanel4Kernel(dst, pan, b, bias *float32, off *int, n, k, c0, c1 int, relu bool) {
	if useAVX512 {
		mulPanel4x32Z(dst, pan, b, bias, off, n, k, c0, c1, relu)
	} else {
		mulPanel4x16(dst, pan, b, bias, off, n, k, c0, c1, relu)
	}
}

// mulAsm is MulTransInto on the assembly kernels. Samples go through the
// multi-sample kernel one full group at a time, by the widest tile of
// fcTiles() that fits, then the next; the samples left over go one by
// one through the one-sample kernel, which takes 64 rows at a time. A
// last group with fewer than sixteen live rows runs the same kernels
// into stack scratch with its bias zero-padded, and only its live
// outputs are copied out, so no kernel writes past a row of y.
func (p *PackedFC) mulAsm(y, x []float32, n int, bias []float32, relu bool, g0, g1 int) {
	m, k := p.rows, p.cols
	full := min(g1, m/fcGroup) // groups [g0, full) have sixteen live rows
	var pb []float32           // the partial group's bias, zero-padded
	var padded [fcGroup]float32
	if full < g1 && bias != nil {
		copy(padded[:], bias[full*fcGroup:m])
		pb = padded[:]
	}
	live := m - full*fcGroup
	var scratch [fcGroup * 16]float32 // one group of the widest tile
	j := 0
	for _, tile := range fcTiles() {
		for ; j+tile <= n; j += tile {
			xt := x[j*k : (j+tile)*k]
			for g := g0; g < full; g++ {
				fcTileAsm(y[j*m+g*fcGroup:], p.span(g, g+1), xt, biasSpan(bias, g, g+1), k, m, tile, relu)
			}
			if full < g1 {
				fcTileAsm(scratch[:], p.span(full, g1), xt, pb, k, fcGroup, tile, relu)
				for s := 0; s < tile; s++ {
					copy(y[(j+s)*m+full*fcGroup:(j+s+1)*m], scratch[s*fcGroup:s*fcGroup+live])
				}
			}
		}
	}
	for ; j < n; j++ {
		xj := x[j*k : (j+1)*k]
		if g0 < full {
			fcRowsAsm(y[j*m+g0*fcGroup:j*m+full*fcGroup], p.span(g0, full), xj, biasSpan(bias, g0, full), k, full-g0, relu)
		}
		if full < g1 {
			fcRowsAsm(scratch[:fcGroup], p.span(full, g1), xj, pb, k, 1, relu)
			copy(y[j*m+full*fcGroup:(j+1)*m], scratch[:live])
		}
	}
}

// span returns the packed weights of row groups [g0, g1).
func (p *PackedFC) span(g0, g1 int) []float32 {
	return p.groups[g0*fcGroup*p.cols : g1*fcGroup*p.cols]
}

// biasSpan returns the biases of full row groups [g0, g1), or nil.
func biasSpan(bias []float32, g0, g1 int) []float32 {
	if bias == nil {
		return nil
	}
	return bias[g0*fcGroup : g1*fcGroup]
}

// fcRowsAsm computes groups·16 outputs of one sample: y[0:16·groups],
// pan the groups' packed weights (16·k floats each), x the k inputs,
// bias nil or the 16·groups biases. The bounds contract is
// mulPanel4Asm's.
func fcRowsAsm(y, pan, x, bias []float32, k, groups int, relu bool) {
	if k < 0 || groups < 1 || groups > len(y)/fcGroup ||
		(k > 0 && groups > len(pan)/fcGroup/k) || len(x) < k ||
		(bias != nil && len(bias)/fcGroup < groups) {
		panic(fmt.Sprintf("tensor: FC kernel out of range: len(y)=%d len(pan)=%d len(x)=%d len(bias)=%d k=%d groups=%d",
			len(y), len(pan), len(x), len(bias), k, groups))
	}
	if useAVX512 {
		fcRowsZ(unsafe.SliceData(y), unsafe.SliceData(pan), unsafe.SliceData(x), unsafe.SliceData(bias), k, groups, relu)
	} else {
		fcRowsY(unsafe.SliceData(y), unsafe.SliceData(pan), unsafe.SliceData(x), unsafe.SliceData(bias), k, groups, relu)
	}
}

// fcTileAsm computes one full group's sixteen outputs for tile
// samples, tile one of fcTiles() (so the ZMM leg only): sample s reads
// x[s·k : s·k+k] and writes y[s·ystride : s·ystride+16], pan is the
// group's 16·k packed weights, bias nil or its sixteen biases. The
// bounds contract is mulPanel4Asm's.
func fcTileAsm(y, pan, x, bias []float32, k, ystride, tile int, relu bool) {
	if !slices.Contains(fcTiles(), tile) || k < 0 || ystride < fcGroup || len(y) < fcGroup || (len(y)-fcGroup)/ystride < tile-1 ||
		(k > 0 && (len(pan)/fcGroup < k || len(x)/tile < k)) ||
		(bias != nil && len(bias) < fcGroup) {
		panic(fmt.Sprintf("tensor: FC tile kernel out of range: len(y)=%d len(pan)=%d len(x)=%d len(bias)=%d k=%d ystride=%d",
			len(y), len(pan), len(x), len(bias), k, ystride))
	}
	fcTileZ(unsafe.SliceData(y), unsafe.SliceData(pan), unsafe.SliceData(x), unsafe.SliceData(bias), k, ystride, tile, relu)
}
