//go:build !purego

#include "textflag.h"

// The fp32 micro-kernels of the serving path. Both are bit-identical to
// the scalar Go loops they stand in for (mulPanel4 + epilogue, and
// DotPanelInto, in packed.go): they vectorise across *independent
// outputs* — sixteen output columns (of a lowered GEMM, or sixteen flat
// positions of a convolution), or the four rows of a panel — so
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

// func dotPanels4x4(dst, pan, x, bias *float32, k int, relu bool)
//
// Sixteen outputs of y = P·x: four consecutive full panels, one XMM
// accumulator each, whose four lanes are the panel's four rows — the
// packed layout stores exactly that quad contiguously per k. Four
// independent add chains hide the add latency; each lane is still one
// output's ascending chain.
TEXT ·dotPanels4x4(SB), NOSPLIT, $0-41
	MOVQ    dst+0(FP), DI
	MOVQ    pan+8(FP), SI
	MOVQ    x+16(FP), DX
	MOVQ    bias+24(FP), R8
	MOVQ    k+32(FP), CX
	MOVBLZX relu+40(FP), R13
	MOVQ    CX, R9
	SHLQ    $4, R9               // one panel is 4·k floats
	LEAQ    (SI)(R9*1), R10
	LEAQ    (R10)(R9*1), R11
	LEAQ    (R11)(R9*1), R12
	VXORPS  X0, X0, X0
	VXORPS  X1, X1, X1
	VXORPS  X2, X2, X2
	VXORPS  X3, X3, X3
	TESTQ   CX, CX
	JZ      dotbias

dotloop:
	VBROADCASTSS (DX), X4
	VMULPS       (SI), X4, X5
	VADDPS       X5, X0, X0
	VMULPS       (R10), X4, X6
	VADDPS       X6, X1, X1
	VMULPS       (R11), X4, X7
	VADDPS       X7, X2, X2
	VMULPS       (R12), X4, X8
	VADDPS       X8, X3, X3
	ADDQ         $16, SI
	ADDQ         $16, R10
	ADDQ         $16, R11
	ADDQ         $16, R12
	ADDQ         $4, DX
	DECQ         CX
	JNZ          dotloop

dotbias:
	TESTQ  R8, R8
	JZ     dotrelu
	VADDPS (R8), X0, X0
	VADDPS 16(R8), X1, X1
	VADDPS 32(R8), X2, X2
	VADDPS 48(R8), X3, X3

dotrelu:
	TESTQ  R13, R13
	JZ     dotstore
	VXORPS X9, X9, X9
	VMAXPS X9, X0, X0
	VMAXPS X9, X1, X1
	VMAXPS X9, X2, X2
	VMAXPS X9, X3, X3

dotstore:
	VMOVUPS X0, (DI)
	VMOVUPS X1, 16(DI)
	VMOVUPS X2, 32(DI)
	VMOVUPS X3, 48(DI)
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
