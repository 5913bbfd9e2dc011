//go:build !purego

#include "textflag.h"

// The fp32 micro-kernels of the serving path. All are bit-identical to
// the scalar Go loops they stand in for (mulPanel4 + epilogue in
// packed.go, and PackedFC.mulScalar in fc.go): they vectorise across
// *independent outputs* — sixteen output columns (of a lowered GEMM, or
// sixteen flat positions of a convolution), or the sixteen rows of an
// FC group — so
// each lane is one output element's own chain, accumulated from +0 over
// ascending k, one rounded multiply (VMULPS) then one rounded add
// (VADDPS) per term. A fused multiply-add rounds once where the scalar
// loop rounds twice, so no instruction of the FMA family may ever appear
// in this file. ReLU is VMAXPS with zero as the second source operand:
// MAXPS returns its second source when either input is NaN or both are
// zero, which is `if v > 0 { v } else { 0 }` — NaN and -0 become +0.
//
// Operand order below is Go's: OP src2, src1, dst.

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// PANEL_KSTEP is the one k-step of the 4×16 tile: Y8 and Y9 hold the
// sixteen right-hand-side values of this k, AX points at the panel's
// four weights for it, and each weight is broadcast and multiplied into
// both halves, then added to its row of the tile (Y0..Y7).
#define PANEL_KSTEP \
	VBROADCASTSS (AX), Y10;   \
	VMULPS       Y8, Y10, Y11; \
	VADDPS       Y11, Y0, Y0;  \
	VMULPS       Y9, Y10, Y12; \
	VADDPS       Y12, Y1, Y1;  \
	VBROADCASTSS 4(AX), Y10;  \
	VMULPS       Y8, Y10, Y11; \
	VADDPS       Y11, Y2, Y2;  \
	VMULPS       Y9, Y10, Y12; \
	VADDPS       Y12, Y3, Y3;  \
	VBROADCASTSS 8(AX), Y10;  \
	VMULPS       Y8, Y10, Y11; \
	VADDPS       Y11, Y4, Y4;  \
	VMULPS       Y9, Y10, Y12; \
	VADDPS       Y12, Y5, Y5;  \
	VBROADCASTSS 12(AX), Y10; \
	VMULPS       Y8, Y10, Y11; \
	VADDPS       Y11, Y6, Y6;  \
	VMULPS       Y9, Y10, Y12; \
	VADDPS       Y12, Y7, Y7;  \
	ADDQ         $16, AX

// func mulPanel4x16(dst, pan, b, bias *float32, off *int, n, k, c0, c1 int, relu bool)
//
// Columns [c0, c1) of a four-row panel, in blocks of 16: Y0..Y7 hold the
// 4×16 tile (row r in Y(2r), Y(2r+1)), zeroed per block. Per k the two
// halves of the B row are loaded once and go through PANEL_KSTEP. Where
// that row is comes from one of two loops around the same step: with
// off nil, B is a row-major k×n matrix and the address advances by the
// row stride; otherwise row kk of B starts at b[off[kk]] (the
// flat-shifted convolution: a tap is a shift within the padded input)
// and n is the row stride of dst alone. The last block starts at c1-16
// whatever c1-c0 is, overlapping the one before it when the band is not
// a multiple of 16 wide. The caller guarantees c1-c0 >= 16 and that
// every address is in range.
TEXT ·mulPanel4x16(SB), NOSPLIT, $0-73
	MOVQ   dst+0(FP), DI
	MOVQ   pan+8(FP), SI
	MOVQ   b+16(FP), DX
	MOVQ   n+40(FP), R9
	MOVQ   k+48(FP), R10
	MOVQ   c0+56(FP), R11        // j: first column of the current block
	MOVQ   c1+64(FP), R12
	SHLQ   $2, R9                // row stride of dst (and of a row-major b) in bytes
	SUBQ   $16, R12              // first column of the last block
	VXORPS Y15, Y15, Y15         // +0 for the ReLU

block:
	CMPQ R11, R12
	JLE  tile
	LEAQ 16(R12), AX
	CMPQ R11, AX
	JGE  done                    // j reached c1: every column is stored
	MOVQ R12, R11                // ragged tail: one overlapping block

tile:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	LEAQ   (DX)(R11*4), BX       // &b[j]: row 0 of a row-major b, the base every offset shifts
	MOVQ   SI, AX                // &pan[0]
	MOVQ   R10, CX
	TESTQ  CX, CX
	JZ     addbias
	MOVQ   off+32(FP), R8
	TESTQ  R8, R8
	JNZ    kflat

kloop:
	VMOVUPS (BX), Y8
	VMOVUPS 32(BX), Y9
	PANEL_KSTEP
	ADDQ    R9, BX
	DECQ    CX
	JNZ     kloop
	JMP     addbias

kflat:
	MOVQ    (R8), R13            // off[kk], in floats
	VMOVUPS (BX)(R13*4), Y8
	VMOVUPS 32(BX)(R13*4), Y9
	PANEL_KSTEP
	ADDQ    $8, R8
	DECQ    CX
	JNZ     kflat

addbias:
	MOVQ         bias+24(FP), R8
	TESTQ        R8, R8
	JZ           clamp
	VBROADCASTSS (R8), Y10
	VADDPS       Y10, Y0, Y0
	VADDPS       Y10, Y1, Y1
	VBROADCASTSS 4(R8), Y10
	VADDPS       Y10, Y2, Y2
	VADDPS       Y10, Y3, Y3
	VBROADCASTSS 8(R8), Y10
	VADDPS       Y10, Y4, Y4
	VADDPS       Y10, Y5, Y5
	VBROADCASTSS 12(R8), Y10
	VADDPS       Y10, Y6, Y6
	VADDPS       Y10, Y7, Y7

clamp:
	MOVBLZX relu+72(FP), R13
	TESTQ   R13, R13
	JZ      store
	VMAXPS  Y15, Y0, Y0
	VMAXPS  Y15, Y1, Y1
	VMAXPS  Y15, Y2, Y2
	VMAXPS  Y15, Y3, Y3
	VMAXPS  Y15, Y4, Y4
	VMAXPS  Y15, Y5, Y5
	VMAXPS  Y15, Y6, Y6
	VMAXPS  Y15, Y7, Y7

store:
	LEAQ    (DI)(R11*4), BX      // &dst[0][j]
	VMOVUPS Y0, (BX)
	VMOVUPS Y1, 32(BX)
	ADDQ    R9, BX
	VMOVUPS Y2, (BX)
	VMOVUPS Y3, 32(BX)
	ADDQ    R9, BX
	VMOVUPS Y4, (BX)
	VMOVUPS Y5, 32(BX)
	ADDQ    R9, BX
	VMOVUPS Y6, (BX)
	VMOVUPS Y7, 32(BX)
	ADDQ    $16, R11
	JMP     block

done:
	VZEROUPPER
	RET

// The FC kernels (PackedFC.MulTransInto, in fc.go) read the 16-row
// group layout: per k, a group's sixteen weights are one contiguous
// 64-byte vector, two YMM or one ZMM. A lane is one output row of one
// sample, accumulated from +0 over ascending k, one rounded VMULPS of
// the row's weight by the sample's broadcast input then one rounded
// VADDPS per term, then the bias add, then VMAXPS against zero as the
// second source: the scalar loop's chain, so its bits. Groups are
// 16·k floats (64·k bytes) apart. The callers (fcRowsAsm, fcTileAsm)
// pass full groups only and have checked every address.

// func fcRowsY(y, pan, x, bias *float32, k, groups int, relu bool)
//
// One sample, groups·16 outputs: four groups at a time (eight YMM
// accumulators, eight independent chains), then one at a time.
TEXT ·fcRowsY(SB), NOSPLIT, $0-49
	MOVQ    y+0(FP), DI
	MOVQ    pan+8(FP), SI
	MOVQ    x+16(FP), DX
	MOVQ    bias+24(FP), R8
	MOVQ    k+32(FP), CX
	MOVQ    groups+40(FP), BX
	MOVBLZX relu+48(FP), R13
	MOVQ    CX, R9
	SHLQ    $6, R9               // one group: 64·k bytes
	LEAQ    (R9)(R9*2), R10      // three groups
	VXORPS  Y15, Y15, Y15

yrows4:
	CMPQ   BX, $4
	JLT    yrows1
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	MOVQ   SI, AX
	MOVQ   DX, R11
	MOVQ   CX, R12
	TESTQ  R12, R12
	JZ     yepi4

yloop4:
	VBROADCASTSS (R11), Y8
	VMULPS       (AX), Y8, Y9
	VADDPS       Y9, Y0, Y0
	VMULPS       32(AX), Y8, Y10
	VADDPS       Y10, Y1, Y1
	VMULPS       (AX)(R9*1), Y8, Y11
	VADDPS       Y11, Y2, Y2
	VMULPS       32(AX)(R9*1), Y8, Y12
	VADDPS       Y12, Y3, Y3
	VMULPS       (AX)(R9*2), Y8, Y9
	VADDPS       Y9, Y4, Y4
	VMULPS       32(AX)(R9*2), Y8, Y10
	VADDPS       Y10, Y5, Y5
	VMULPS       (AX)(R10*1), Y8, Y11
	VADDPS       Y11, Y6, Y6
	VMULPS       32(AX)(R10*1), Y8, Y12
	VADDPS       Y12, Y7, Y7
	ADDQ         $64, AX
	ADDQ         $4, R11
	DECQ         R12
	JNZ          yloop4

yepi4:
	TESTQ  R8, R8
	JZ     yrelu4
	VADDPS (R8), Y0, Y0
	VADDPS 32(R8), Y1, Y1
	VADDPS 64(R8), Y2, Y2
	VADDPS 96(R8), Y3, Y3
	VADDPS 128(R8), Y4, Y4
	VADDPS 160(R8), Y5, Y5
	VADDPS 192(R8), Y6, Y6
	VADDPS 224(R8), Y7, Y7
	ADDQ   $256, R8

yrelu4:
	TESTQ  R13, R13
	JZ     ystore4
	VMAXPS Y15, Y0, Y0
	VMAXPS Y15, Y1, Y1
	VMAXPS Y15, Y2, Y2
	VMAXPS Y15, Y3, Y3
	VMAXPS Y15, Y4, Y4
	VMAXPS Y15, Y5, Y5
	VMAXPS Y15, Y6, Y6
	VMAXPS Y15, Y7, Y7

ystore4:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VMOVUPS Y4, 128(DI)
	VMOVUPS Y5, 160(DI)
	VMOVUPS Y6, 192(DI)
	VMOVUPS Y7, 224(DI)
	ADDQ    $256, DI
	LEAQ    (SI)(R9*4), SI
	SUBQ    $4, BX
	JMP     yrows4

yrows1:
	TESTQ  BX, BX
	JZ     ydone
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	MOVQ   SI, AX
	MOVQ   DX, R11
	MOVQ   CX, R12
	TESTQ  R12, R12
	JZ     yepi1

yloop1:
	VBROADCASTSS (R11), Y8
	VMULPS       (AX), Y8, Y9
	VADDPS       Y9, Y0, Y0
	VMULPS       32(AX), Y8, Y10
	VADDPS       Y10, Y1, Y1
	ADDQ         $64, AX
	ADDQ         $4, R11
	DECQ         R12
	JNZ          yloop1

yepi1:
	TESTQ  R8, R8
	JZ     yrelu1
	VADDPS (R8), Y0, Y0
	VADDPS 32(R8), Y1, Y1
	ADDQ   $64, R8

yrelu1:
	TESTQ  R13, R13
	JZ     ystore1
	VMAXPS Y15, Y0, Y0
	VMAXPS Y15, Y1, Y1

ystore1:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	ADDQ    $64, DI
	ADDQ    R9, SI
	DECQ    BX
	JMP     yrows1

ydone:
	VZEROUPPER
	RET

// The ZMM forms of the panel kernel (AVX-512F; useAVX512). A ZMM lane
// is what a YMM lane is — one output element's own chain, from +0 over
// ascending k, one rounded VMULPS then one rounded VADDPS per term, the
// bias added, then VMAXPS against zero as the second source — only
// sixteen of them share a register instead of eight, so the kernel
// stores the bits of panel_amd64.s's 4×16 and of the scalar loop. No
// masked or merge-masked form, no embedded rounding, nothing of the FMA
// family: tails recompute, as above.

// PANEL_KSTEP32 is one k-step of the 4×32 tile: Z8 and Z9 hold the
// thirty-two right-hand-side values of this k, AX points at the panel's
// four weights for it; row r accumulates in Z(2r), Z(2r+1).
#define PANEL_KSTEP32 \
	VBROADCASTSS (AX), Z10;   \
	VMULPS       Z8, Z10, Z11; \
	VADDPS       Z11, Z0, Z0;  \
	VMULPS       Z9, Z10, Z12; \
	VADDPS       Z12, Z1, Z1;  \
	VBROADCASTSS 4(AX), Z10;  \
	VMULPS       Z8, Z10, Z11; \
	VADDPS       Z11, Z2, Z2;  \
	VMULPS       Z9, Z10, Z12; \
	VADDPS       Z12, Z3, Z3;  \
	VBROADCASTSS 8(AX), Z10;  \
	VMULPS       Z8, Z10, Z11; \
	VADDPS       Z11, Z4, Z4;  \
	VMULPS       Z9, Z10, Z12; \
	VADDPS       Z12, Z5, Z5;  \
	VBROADCASTSS 12(AX), Z10; \
	VMULPS       Z8, Z10, Z11; \
	VADDPS       Z11, Z6, Z6;  \
	VMULPS       Z9, Z10, Z12; \
	VADDPS       Z12, Z7, Z7;  \
	ADDQ         $16, AX

// PANEL_KSTEP16 is one k-step of the 4×16 tile: Z8 holds the sixteen
// right-hand-side values, row r accumulates in Z(2r).
#define PANEL_KSTEP16 \
	VBROADCASTSS (AX), Z10;   \
	VMULPS       Z8, Z10, Z11; \
	VADDPS       Z11, Z0, Z0;  \
	VBROADCASTSS 4(AX), Z10;  \
	VMULPS       Z8, Z10, Z12; \
	VADDPS       Z12, Z2, Z2;  \
	VBROADCASTSS 8(AX), Z10;  \
	VMULPS       Z8, Z10, Z11; \
	VADDPS       Z11, Z4, Z4;  \
	VBROADCASTSS 12(AX), Z10; \
	VMULPS       Z8, Z10, Z12; \
	VADDPS       Z12, Z6, Z6;  \
	ADDQ         $16, AX

// PANEL_BIAS adds bias[r] (R8 points at the four biases, off = 4r) to
// the two registers of row r of the 4×32 tile.
#define PANEL_BIAS(off, lo, hi) \
	VBROADCASTSS off(R8), Z10; \
	VADDPS       Z10, lo, lo;  \
	VADDPS       Z10, hi, hi

// func mulPanel4x32Z(dst, pan, b, bias *float32, off *int, n, k, c0, c1 int, relu bool)
//
// mulPanel4x16's contract on ZMM registers. Columns [c0, c1) go in
// blocks of 32 (two ZMM per panel row) while a whole one fits; what is
// left — r < 32 columns — takes one 32-block ending at c1 when r > 16
// and a block of 32 ran before it, and otherwise 16-blocks (one ZMM per
// row), the last ending at c1. Every column is computed, none outside
// [c0, c1) is touched, and an overlapped column is stored twice with
// the same bits. The k loops read B row-major (off nil) or through the
// offset table, as mulPanel4x16's do. The caller guarantees c1-c0 >= 16
// and that every address is in range.
TEXT ·mulPanel4x32Z(SB), NOSPLIT, $0-73
	MOVQ   dst+0(FP), DI
	MOVQ   pan+8(FP), SI
	MOVQ   b+16(FP), DX
	MOVQ   off+32(FP), R14
	MOVQ   n+40(FP), R9
	MOVQ   k+48(FP), R10
	MOVQ   c0+56(FP), R11        // j: first column of the current block
	MOVQ   c1+64(FP), R12
	SHLQ   $2, R9                // row stride of dst (and of a row-major b) in bytes
	VPXORD Z15, Z15, Z15         // +0 for the ReLU

next:
	MOVQ R12, AX
	SUBQ R11, AX                 // columns left
	JLE  zdone
	CMPQ AX, $32
	JGE  tile32
	CMPQ AX, $16
	JLE  last16
	CMPQ R11, c0+56(FP)
	JEQ  tile16                  // a band under 32: 16 now, the rest ending at c1
	LEAQ -32(R12), R11           // after 32-blocks: one overlapping 32-block
	JMP  tile32

last16:
	LEAQ -16(R12), R11           // the last 16-block ends at c1

tile16:
	VPXORD Z0, Z0, Z0
	VPXORD Z2, Z2, Z2
	VPXORD Z4, Z4, Z4
	VPXORD Z6, Z6, Z6
	LEAQ   (DX)(R11*4), BX       // &b[j]
	MOVQ   SI, AX                // &pan[0]
	MOVQ   R10, CX
	TESTQ  CX, CX
	JZ     bias16
	MOVQ   R14, R8
	TESTQ  R8, R8
	JNZ    kflat16

kloop16:
	VMOVUPS (BX), Z8
	PANEL_KSTEP16
	ADDQ    R9, BX
	DECQ    CX
	JNZ     kloop16
	JMP     bias16

kflat16:
	MOVQ    (R8), R13            // off[kk], in floats
	VMOVUPS (BX)(R13*4), Z8
	PANEL_KSTEP16
	ADDQ    $8, R8
	DECQ    CX
	JNZ     kflat16

bias16:
	MOVQ         bias+24(FP), R8
	TESTQ        R8, R8
	JZ           relu16
	VBROADCASTSS (R8), Z10
	VADDPS       Z10, Z0, Z0
	VBROADCASTSS 4(R8), Z10
	VADDPS       Z10, Z2, Z2
	VBROADCASTSS 8(R8), Z10
	VADDPS       Z10, Z4, Z4
	VBROADCASTSS 12(R8), Z10
	VADDPS       Z10, Z6, Z6

relu16:
	MOVBLZX relu+72(FP), R13
	TESTQ  R13, R13
	JZ     store16
	VMAXPS Z15, Z0, Z0
	VMAXPS Z15, Z2, Z2
	VMAXPS Z15, Z4, Z4
	VMAXPS Z15, Z6, Z6

store16:
	LEAQ    (DI)(R11*4), BX      // &dst[0][j]
	VMOVUPS Z0, (BX)
	ADDQ    R9, BX
	VMOVUPS Z2, (BX)
	ADDQ    R9, BX
	VMOVUPS Z4, (BX)
	ADDQ    R9, BX
	VMOVUPS Z6, (BX)
	ADDQ    $16, R11
	JMP     next

tile32:
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7
	LEAQ   (DX)(R11*4), BX
	MOVQ   SI, AX
	MOVQ   R10, CX
	TESTQ  CX, CX
	JZ     bias32
	MOVQ   R14, R8
	TESTQ  R8, R8
	JNZ    kflat32

kloop32:
	VMOVUPS (BX), Z8
	VMOVUPS 64(BX), Z9
	PANEL_KSTEP32
	ADDQ    R9, BX
	DECQ    CX
	JNZ     kloop32
	JMP     bias32

kflat32:
	MOVQ    (R8), R13
	VMOVUPS (BX)(R13*4), Z8
	VMOVUPS 64(BX)(R13*4), Z9
	PANEL_KSTEP32
	ADDQ    $8, R8
	DECQ    CX
	JNZ     kflat32

bias32:
	MOVQ  bias+24(FP), R8
	TESTQ R8, R8
	JZ    relu32
	PANEL_BIAS(0, Z0, Z1)
	PANEL_BIAS(4, Z2, Z3)
	PANEL_BIAS(8, Z4, Z5)
	PANEL_BIAS(12, Z6, Z7)

relu32:
	MOVBLZX relu+72(FP), R13
	TESTQ  R13, R13
	JZ     store32
	VMAXPS Z15, Z0, Z0
	VMAXPS Z15, Z1, Z1
	VMAXPS Z15, Z2, Z2
	VMAXPS Z15, Z3, Z3
	VMAXPS Z15, Z4, Z4
	VMAXPS Z15, Z5, Z5
	VMAXPS Z15, Z6, Z6
	VMAXPS Z15, Z7, Z7

store32:
	LEAQ    (DI)(R11*4), BX
	VMOVUPS Z0, (BX)
	VMOVUPS Z1, 64(BX)
	ADDQ    R9, BX
	VMOVUPS Z2, (BX)
	VMOVUPS Z3, 64(BX)
	ADDQ    R9, BX
	VMOVUPS Z4, (BX)
	VMOVUPS Z5, 64(BX)
	ADDQ    R9, BX
	VMOVUPS Z6, (BX)
	VMOVUPS Z7, 64(BX)
	ADDQ    $32, R11
	JMP     next

zdone:
	VZEROUPPER
	RET

// The ZMM forms of the FC kernels: fcRowsY's contract with one ZMM per
// group, and a multi-sample tile with one ZMM per sample.

// func fcRowsZ(y, pan, x, bias *float32, k, groups int, relu bool)
//
// One sample: the 64×1 tile (four groups, four ZMM accumulators, four
// independent chains) while four groups remain, then 16×1.
TEXT ·fcRowsZ(SB), NOSPLIT, $0-49
	MOVQ    y+0(FP), DI
	MOVQ    pan+8(FP), SI
	MOVQ    x+16(FP), DX
	MOVQ    bias+24(FP), R8
	MOVQ    k+32(FP), CX
	MOVQ    groups+40(FP), BX
	MOVBLZX relu+48(FP), R13
	MOVQ    CX, R9
	SHLQ    $6, R9               // one group: 64·k bytes
	LEAQ    (R9)(R9*2), R10      // three groups
	VXORPS  Z31, Z31, Z31

zrows4:
	CMPQ   BX, $4
	JLT    zrows1
	VXORPS Z0, Z0, Z0
	VXORPS Z1, Z1, Z1
	VXORPS Z2, Z2, Z2
	VXORPS Z3, Z3, Z3
	MOVQ   SI, AX
	MOVQ   DX, R11
	MOVQ   CX, R12
	TESTQ  R12, R12
	JZ     zepi4

zloop4:
	VBROADCASTSS (R11), Z4
	VMULPS       (AX), Z4, Z5
	VADDPS       Z5, Z0, Z0
	VMULPS       (AX)(R9*1), Z4, Z6
	VADDPS       Z6, Z1, Z1
	VMULPS       (AX)(R9*2), Z4, Z7
	VADDPS       Z7, Z2, Z2
	VMULPS       (AX)(R10*1), Z4, Z8
	VADDPS       Z8, Z3, Z3
	ADDQ         $64, AX
	ADDQ         $4, R11
	DECQ         R12
	JNZ          zloop4

zepi4:
	TESTQ  R8, R8
	JZ     zrelu4
	VADDPS (R8), Z0, Z0
	VADDPS 64(R8), Z1, Z1
	VADDPS 128(R8), Z2, Z2
	VADDPS 192(R8), Z3, Z3
	ADDQ   $256, R8

zrelu4:
	TESTQ  R13, R13
	JZ     zstore4
	VMAXPS Z31, Z0, Z0
	VMAXPS Z31, Z1, Z1
	VMAXPS Z31, Z2, Z2
	VMAXPS Z31, Z3, Z3

zstore4:
	VMOVUPS Z0, (DI)
	VMOVUPS Z1, 64(DI)
	VMOVUPS Z2, 128(DI)
	VMOVUPS Z3, 192(DI)
	ADDQ    $256, DI
	LEAQ    (SI)(R9*4), SI
	SUBQ    $4, BX
	JMP     zrows4

zrows1:
	TESTQ  BX, BX
	JZ     zfcdone
	VXORPS Z0, Z0, Z0
	MOVQ   SI, AX
	MOVQ   DX, R11
	MOVQ   CX, R12
	TESTQ  R12, R12
	JZ     zepi1

zloop1:
	VBROADCASTSS (R11), Z4
	VMULPS       (AX), Z4, Z5
	VADDPS       Z5, Z0, Z0
	ADDQ         $64, AX
	ADDQ         $4, R11
	DECQ         R12
	JNZ          zloop1

zepi1:
	TESTQ  R8, R8
	JZ     zrelu1
	VADDPS (R8), Z0, Z0
	ADDQ   $64, R8

zrelu1:
	TESTQ  R13, R13
	JZ     zstore1
	VMAXPS Z31, Z0, Z0

zstore1:
	VMOVUPS Z0, (DI)
	ADDQ    $64, DI
	ADDQ    R9, SI
	DECQ    BX
	JMP     zrows1

zfcdone:
	VZEROUPPER
	RET

// FC_ZSAMPLES4 is the k-step of four samples of the 16×16 tile: base
// points at the first one's input at this k, R9 and R10 hold one and
// three samples' stride, Z16 the group's sixteen weights. Each sample's
// input is broadcast from memory into its multiply (VMULPS.BCST) and
// its outputs accumulate in a0..a3.
#define FC_ZSAMPLES4(base, a0, a1, a2, a3) \
	VMULPS.BCST (base), Z16, Z17;        \
	VADDPS      Z17, a0, a0;             \
	VMULPS.BCST (base)(R9*1), Z16, Z18;  \
	VADDPS      Z18, a1, a1;             \
	VMULPS.BCST (base)(R9*2), Z16, Z19;  \
	VADDPS      Z19, a2, a2;             \
	VMULPS.BCST (base)(R10*1), Z16, Z20; \
	VADDPS      Z20, a3, a3

// FC_ZSAMPLES is FC_ZSAMPLES4 for eight samples; R11 and R12 hold five
// and seven samples' stride.
#define FC_ZSAMPLES(base, a0, a1, a2, a3, a4, a5, a6, a7) \
	FC_ZSAMPLES4(base, a0, a1, a2, a3);  \
	VMULPS.BCST (base)(R9*4), Z16, Z21;  \
	VADDPS      Z21, a4, a4;             \
	VMULPS.BCST (base)(R11*1), Z16, Z22; \
	VADDPS      Z22, a5, a5;             \
	VMULPS.BCST (base)(R10*2), Z16, Z23; \
	VADDPS      Z23, a6, a6;             \
	VMULPS.BCST (base)(R12*1), Z16, Z24; \
	VADDPS      Z24, a7, a7

// func fcTileZ(y, pan, x, bias *float32, k, ystride, samples int, relu bool)
//
// One group's sixteen outputs for sixteen samples (or, when samples is
// 8 or 4, for eight or four): a ZMM accumulator and an independent chain
// per sample, and each weight vector loaded once for all of them.
TEXT ·fcTileZ(SB), NOSPLIT, $0-57
	MOVQ    y+0(FP), DI
	MOVQ    pan+8(FP), SI
	MOVQ    x+16(FP), DX
	MOVQ    bias+24(FP), R8
	MOVQ    k+32(FP), CX
	MOVQ    ystride+40(FP), BX
	MOVQ    samples+48(FP), AX
	MOVBLZX relu+56(FP), R13
	MOVQ    CX, R9
	SHLQ    $2, R9               // one sample of x: 4·k bytes
	LEAQ    (R9)(R9*2), R10      // three samples
	LEAQ    (R9)(R9*4), R11      // five
	LEAQ    (R10)(R9*4), R12     // seven
	LEAQ    (DX)(R9*8), R14      // sample 8
	SHLQ    $2, BX
	VXORPS  Z0, Z0, Z0
	VXORPS  Z1, Z1, Z1
	VXORPS  Z2, Z2, Z2
	VXORPS  Z3, Z3, Z3
	VXORPS  Z4, Z4, Z4
	VXORPS  Z5, Z5, Z5
	VXORPS  Z6, Z6, Z6
	VXORPS  Z7, Z7, Z7
	VXORPS  Z8, Z8, Z8
	VXORPS  Z9, Z9, Z9
	VXORPS  Z10, Z10, Z10
	VXORPS  Z11, Z11, Z11
	VXORPS  Z12, Z12, Z12
	VXORPS  Z13, Z13, Z13
	VXORPS  Z14, Z14, Z14
	VXORPS  Z15, Z15, Z15
	TESTQ   CX, CX
	JZ      ztepi
	CMPQ    AX, $8
	JEQ     ztloop8
	JLT     ztloop4

ztloop:
	VMOVUPS (SI), Z16
	FC_ZSAMPLES(DX, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7)
	FC_ZSAMPLES(R14, Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15)
	ADDQ    $64, SI
	ADDQ    $4, DX
	ADDQ    $4, R14
	DECQ    CX
	JNZ     ztloop
	JMP     ztepi

ztloop8:
	VMOVUPS (SI), Z16
	FC_ZSAMPLES(DX, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7)
	ADDQ    $64, SI
	ADDQ    $4, DX
	DECQ    CX
	JNZ     ztloop8
	JMP     ztepi

ztloop4:
	VMOVUPS (SI), Z16
	FC_ZSAMPLES4(DX, Z0, Z1, Z2, Z3)
	ADDQ    $64, SI
	ADDQ    $4, DX
	DECQ    CX
	JNZ     ztloop4

ztepi:
	TESTQ   R8, R8
	JZ      ztrelu
	VMOVUPS (R8), Z16
	VADDPS  Z16, Z0, Z0
	VADDPS  Z16, Z1, Z1
	VADDPS  Z16, Z2, Z2
	VADDPS  Z16, Z3, Z3
	VADDPS  Z16, Z4, Z4
	VADDPS  Z16, Z5, Z5
	VADDPS  Z16, Z6, Z6
	VADDPS  Z16, Z7, Z7
	VADDPS  Z16, Z8, Z8
	VADDPS  Z16, Z9, Z9
	VADDPS  Z16, Z10, Z10
	VADDPS  Z16, Z11, Z11
	VADDPS  Z16, Z12, Z12
	VADDPS  Z16, Z13, Z13
	VADDPS  Z16, Z14, Z14
	VADDPS  Z16, Z15, Z15

ztrelu:
	TESTQ  R13, R13
	JZ     ztstore
	VXORPS Z31, Z31, Z31
	VMAXPS Z31, Z0, Z0
	VMAXPS Z31, Z1, Z1
	VMAXPS Z31, Z2, Z2
	VMAXPS Z31, Z3, Z3
	VMAXPS Z31, Z4, Z4
	VMAXPS Z31, Z5, Z5
	VMAXPS Z31, Z6, Z6
	VMAXPS Z31, Z7, Z7
	VMAXPS Z31, Z8, Z8
	VMAXPS Z31, Z9, Z9
	VMAXPS Z31, Z10, Z10
	VMAXPS Z31, Z11, Z11
	VMAXPS Z31, Z12, Z12
	VMAXPS Z31, Z13, Z13
	VMAXPS Z31, Z14, Z14
	VMAXPS Z31, Z15, Z15

ztstore:
	VMOVUPS Z0, (DI)
	ADDQ    BX, DI
	VMOVUPS Z1, (DI)
	ADDQ    BX, DI
	VMOVUPS Z2, (DI)
	ADDQ    BX, DI
	VMOVUPS Z3, (DI)
	CMPQ    AX, $8
	JLT     ztdone
	ADDQ    BX, DI
	VMOVUPS Z4, (DI)
	ADDQ    BX, DI
	VMOVUPS Z5, (DI)
	ADDQ    BX, DI
	VMOVUPS Z6, (DI)
	ADDQ    BX, DI
	VMOVUPS Z7, (DI)
	CMPQ    AX, $16
	JLT     ztdone
	ADDQ    BX, DI
	VMOVUPS Z8, (DI)
	ADDQ    BX, DI
	VMOVUPS Z9, (DI)
	ADDQ    BX, DI
	VMOVUPS Z10, (DI)
	ADDQ    BX, DI
	VMOVUPS Z11, (DI)
	ADDQ    BX, DI
	VMOVUPS Z12, (DI)
	ADDQ    BX, DI
	VMOVUPS Z13, (DI)
	ADDQ    BX, DI
	VMOVUPS Z14, (DI)
	ADDQ    BX, DI
	VMOVUPS Z15, (DI)

ztdone:
	VZEROUPPER
	RET
