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
