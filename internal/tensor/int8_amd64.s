//go:build !purego

#include "textflag.h"

// The int8 micro-kernels of the serving path: the panel GEMM with its
// dequantize epilogue, the fully-connected dot and the activation
// quantizer. Each is bit-identical to the scalar Go loop it stands in
// for (mulPanel4Int8 + dequantRows, DotPanelInto and QuantizeSlice in
// quant.go).
//
// The integer half needs no ordering argument: VPMADDWD multiplies
// sign-extended int16 pairs and adds the two products in int32 —
// |2·127·128| is nowhere near 2³¹, so nothing saturates or wraps — and
// int32 accumulation under PackInt8's depth bound is exact, hence
// associative: any summation order gives the scalar loop's integer.
// The byte multiply-add (unsigned × signed) saturates its int16 pair sum
// (255·127·2 > 32,767) and the saturating VNNI dot products clamp the
// accumulator; none of them may appear here (DESIGN.md §5.8 and `make
// check-asm` name the mnemonics — this file must not, the check is a
// grep). The float half is one convert, one rounded
// multiply and one rounded add per element, the scalar epilogue's own
// three operations, so no instruction of the FMA family may appear
// either. ReLU is VMAXPS with zero as the second source (NaN and -0
// become +0), as in panel_amd64.s.
//
// Operand order below is Go's: OP src2, src1, dst.

// One k-pair of the 4×16 tile. X8 and X9 hold sixteen activation codes
// of rows k and k+1; interleaved and sign-extended they are sixteen
// (b[k][c], b[k+1][c]) int16 pairs, columns 0..7 in Y10 and 8..15 in
// Y11. AX points at the panel's four (w[k], w[k+1]) pairs.
#define ROWPAIR(off, lo, hi) \
	VPBROADCASTD off(AX), Y12; \
	VPMADDWD     Y10, Y12, Y13; \
	VPADDD       Y13, lo, lo;   \
	VPMADDWD     Y11, Y12, Y14; \
	VPADDD       Y14, hi, hi

#define KPAIR \
	VPUNPCKLBW X9, X8, X10;  \
	VPUNPCKHBW X9, X8, X11;  \
	VPMOVSXBW  X10, Y10;     \
	VPMOVSXBW  X11, Y11;     \
	ROWPAIR(0, Y0, Y1);      \
	ROWPAIR(4, Y2, Y3);      \
	ROWPAIR(8, Y4, Y5);      \
	ROWPAIR(12, Y6, Y7)

// One row of the epilogue: float32(acc - corr)·scale + bias.
#define DEQUANT(off, lo, hi) \
	VPBROADCASTD off(R8), Y8;  \
	VPSUBD       Y8, lo, lo;   \
	VPSUBD       Y8, hi, hi;   \
	VCVTDQ2PS    lo, lo;       \
	VCVTDQ2PS    hi, hi;       \
	VBROADCASTSS off(R9), Y9;  \
	VMULPS       Y9, lo, lo;   \
	VMULPS       Y9, hi, hi;   \
	VBROADCASTSS off(R10), Y8; \
	VADDPS       Y8, lo, lo;   \
	VADDPS       Y8, hi, hi

// func mulPanelInt8x16(dst *float32, pairs *int16, b *int8, corr *int32, scale, bias *float32, n, k int, relu bool)
//
// All n columns of one full panel's four output rows, in blocks of 16:
// Y0..Y7 hold the 4×16 tile of int32 accumulators (row r in Y(2r),
// Y(2r+1)), zeroed per block. The k loop takes two rows of b at a time
// against the panel's pair layout (PackInt8: 8 int16 per k-pair); an odd
// last row pairs with a zero register, its partner weight being zero
// too. corr, scale and bias are the panel's four zero-point corrections,
// output scales and biases (zeros when the layer has none: the scalar
// loop adds +0 as well). The last block starts at n-16 and overlaps the
// one before it when n is not a multiple of 16 — the kernel overwrites,
// so a column computed twice stores the same bits twice. The caller
// guarantees n >= 16 and that every address is in range.
TEXT ·mulPanelInt8x16(SB), NOSPLIT, $0-65
	MOVQ   dst+0(FP), DI
	MOVQ   pairs+8(FP), SI
	MOVQ   b+16(FP), DX
	MOVQ   corr+24(FP), R8
	MOVQ   scale+32(FP), R9
	MOVQ   bias+40(FP), R10
	MOVQ   n+48(FP), R11         // row stride of b in bytes
	MOVQ   k+56(FP), R12
	XORQ   R13, R13              // j: first column of the current block
	VXORPS Y15, Y15, Y15         // +0 for the ReLU

block:
	LEAQ -16(R11), AX            // first column of the last block
	CMPQ R13, AX
	JLE  tile
	CMPQ R13, R11
	JGE  done                    // j reached n: every column is stored
	MOVQ AX, R13                 // ragged tail: one overlapping block

tile:
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	VPXOR Y4, Y4, Y4
	VPXOR Y5, Y5, Y5
	VPXOR Y6, Y6, Y6
	VPXOR Y7, Y7, Y7
	LEAQ  (DX)(R13*1), BX        // &b[0][j]
	MOVQ  SI, AX                 // the panel's first k-pair
	MOVQ  R12, CX
	SHRQ  $1, CX
	JZ    oddk

kloop:
	VMOVDQU (BX), X8
	VMOVDQU (BX)(R11*1), X9
	KPAIR
	ADDQ    $16, AX
	LEAQ    (BX)(R11*2), BX
	DECQ    CX
	JNZ     kloop

oddk:
	BTQ     $0, R12
	JCC     dequant
	VMOVDQU (BX), X8
	VPXOR   X9, X9, X9
	KPAIR

dequant:
	DEQUANT(0, Y0, Y1)
	DEQUANT(4, Y2, Y3)
	DEQUANT(8, Y4, Y5)
	DEQUANT(12, Y6, Y7)
	MOVBLZX relu+64(FP), CX
	TESTQ   CX, CX
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
	LEAQ    (DI)(R13*4), BX      // &dst[0][j]
	LEAQ    (R11*4), CX          // row stride of dst in bytes
	VMOVUPS Y0, (BX)
	VMOVUPS Y1, 32(BX)
	ADDQ    CX, BX
	VMOVUPS Y2, (BX)
	VMOVUPS Y3, 32(BX)
	ADDQ    CX, BX
	VMOVUPS Y4, (BX)
	VMOVUPS Y5, 32(BX)
	ADDQ    CX, BX
	VMOVUPS Y6, (BX)
	VMOVUPS Y7, 32(BX)
	ADDQ    $16, R13
	JMP     block

done:
	VZEROUPPER
	RET

// func dotPanelInt8(acc *int32, pairs *int16, x *int8, k8 int)
//
// The first 8·k8 terms of one panel's four dot products against x, as
// int32 sums into acc[0:4]. Eight codes of x are sign-extended to four
// int16 pairs; each is broadcast (VPSHUFD) against the 16 bytes the pair
// layout stores for that k-pair — the panel's four rows, one per dword
// lane — so one VPMADDWD advances all four rows by two terms. Four
// accumulators keep the adds independent; they are summed at the end.
TEXT ·dotPanelInt8(SB), NOSPLIT, $0-32
	MOVQ  acc+0(FP), DI
	MOVQ  pairs+8(FP), SI
	MOVQ  x+16(FP), DX
	MOVQ  k8+24(FP), CX
	VPXOR X0, X0, X0
	VPXOR X1, X1, X1
	VPXOR X2, X2, X2
	VPXOR X3, X3, X3
	TESTQ CX, CX
	JZ    dotsum

dotloop:
	VPMOVSXBW (DX), X4
	VPSHUFD   $0x00, X4, X5
	VPMADDWD  (SI), X5, X5
	VPADDD    X5, X0, X0
	VPSHUFD   $0x55, X4, X6
	VPMADDWD  16(SI), X6, X6
	VPADDD    X6, X1, X1
	VPSHUFD   $0xAA, X4, X7
	VPMADDWD  32(SI), X7, X7
	VPADDD    X7, X2, X2
	VPSHUFD   $0xFF, X4, X8
	VPMADDWD  48(SI), X8, X8
	VPADDD    X8, X3, X3
	ADDQ      $64, SI
	ADDQ      $8, DX
	DECQ      CX
	JNZ       dotloop

dotsum:
	VPADDD  X1, X0, X0
	VPADDD  X3, X2, X2
	VPADDD  X2, X0, X0
	VMOVDQU X0, (DI)
	VZEROUPPER
	RET

// func quantize8(dst *int8, src *float32, n8 int, invScale float32, zp int32)
//
// 8·n8 activations through QuantizeSlice's map, eight per iteration.
// The clamps take the data as the *second* source: MAXPS/MINPS return
// their second source when either input is NaN, so a NaN stays a NaN as
// it does through Go's min and max; VCVTTPS2DQ then yields -2³¹ for it
// as the scalar conversion does, VPADDD wraps like Go's int32 add, and
// the two saturating packs are the clamp to [-128, 127].
TEXT ·quantize8(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         n8+16(FP), CX
	MOVL         invScale+24(FP), AX
	VMOVD        AX, X0
	VPBROADCASTD X0, Y0          // invScale
	MOVL         zp+28(FP), AX
	VMOVD        AX, X1
	VPBROADCASTD X1, Y1          // zp
	MOVL         $0xC3800000, AX
	VMOVD        AX, X2
	VPBROADCASTD X2, Y2          // -256
	MOVL         $0x43800000, AX
	VMOVD        AX, X3
	VPBROADCASTD X3, Y3          // 256
	MOVL         $0x80000000, AX
	VMOVD        AX, X4
	VPBROADCASTD X4, Y4          // sign bit
	MOVL         $0x3F000000, AX
	VMOVD        AX, X5
	VPBROADCASTD X5, Y5          // 0.5
	TESTQ        CX, CX
	JZ           qdone

qloop:
	VMULPS       (SI), Y0, Y6
	VMAXPS       Y6, Y2, Y6
	VMINPS       Y6, Y3, Y6
	VPAND        Y4, Y6, Y7
	VPOR         Y5, Y7, Y7      // copysign(0.5, f)
	VADDPS       Y7, Y6, Y6
	VCVTTPS2DQ   Y6, Y6
	VPADDD       Y1, Y6, Y6
	VEXTRACTI128 $1, Y6, X7
	VPACKSSDW    X7, X6, X6
	VPACKSSWB    X6, X6, X6
	VMOVQ        X6, (DI)
	ADDQ         $32, SI
	ADDQ         $8, DI
	DECQ         CX
	JNZ          qloop

qdone:
	VZEROUPPER
	RET

// The ZMM form of the panel GEMM (AVX512F + AVX512BW; useAVX512): one
// ZMM of sixteen int32 accumulators per panel row instead of two YMM.
// Per k-pair the sixteen activation pairs are interleaved as above,
// joined into one YMM and sign-extended to one ZMM, so a row takes one
// VPMADDWD and one VPADDD. The integers are the same exact sums, and
// the epilogue is DEQUANT's three rounded operations per element on
// wider registers, so the stores are the YMM kernel's bits.
#define KPAIRZ \
	VPUNPCKLBW X9, X8, X10;      \
	VPUNPCKHBW X9, X8, X11;      \
	VINSERTI128 $1, X11, Y10, Y10; \
	VPMOVSXBW  Y10, Z10;         \
	VPBROADCASTD (AX), Z12;      \
	VPMADDWD   Z10, Z12, Z13;    \
	VPADDD     Z13, Z0, Z0;      \
	VPBROADCASTD 4(AX), Z12;     \
	VPMADDWD   Z10, Z12, Z14;    \
	VPADDD     Z14, Z2, Z2;      \
	VPBROADCASTD 8(AX), Z12;     \
	VPMADDWD   Z10, Z12, Z13;    \
	VPADDD     Z13, Z4, Z4;      \
	VPBROADCASTD 12(AX), Z12;    \
	VPMADDWD   Z10, Z12, Z14;    \
	VPADDD     Z14, Z6, Z6

#define DEQUANTZ(off, acc) \
	VPBROADCASTD off(R8), Z8;  \
	VPSUBD       Z8, acc, acc; \
	VCVTDQ2PS    acc, acc;     \
	VBROADCASTSS off(R9), Z9;  \
	VMULPS       Z9, acc, acc; \
	VBROADCASTSS off(R10), Z8; \
	VADDPS       Z8, acc, acc

// func mulPanelInt8x16Z(dst *float32, pairs *int16, b *int8, corr *int32, scale, bias *float32, n, k int, relu bool)
//
// mulPanelInt8x16's contract, sixteen columns a block in one ZMM per
// row; the last block starts at n-16 and overlaps the one before it.
TEXT ·mulPanelInt8x16Z(SB), NOSPLIT, $0-65
	MOVQ   dst+0(FP), DI
	MOVQ   pairs+8(FP), SI
	MOVQ   b+16(FP), DX
	MOVQ   corr+24(FP), R8
	MOVQ   scale+32(FP), R9
	MOVQ   bias+40(FP), R10
	MOVQ   n+48(FP), R11         // row stride of b in bytes
	MOVQ   k+56(FP), R12
	XORQ   R13, R13              // j: first column of the current block
	VPXORD Z15, Z15, Z15         // +0 for the ReLU

zblock:
	LEAQ -16(R11), AX            // first column of the last block
	CMPQ R13, AX
	JLE  ztile
	CMPQ R13, R11
	JGE  zdone                   // j reached n: every column is stored
	MOVQ AX, R13                 // ragged tail: one overlapping block

ztile:
	VPXORD Z0, Z0, Z0
	VPXORD Z2, Z2, Z2
	VPXORD Z4, Z4, Z4
	VPXORD Z6, Z6, Z6
	LEAQ   (DX)(R13*1), BX       // &b[0][j]
	MOVQ   SI, AX                // the panel's first k-pair
	MOVQ   R12, CX
	SHRQ   $1, CX
	JZ     zoddk

zkloop:
	VMOVDQU (BX), X8
	VMOVDQU (BX)(R11*1), X9
	KPAIRZ
	ADDQ    $16, AX
	LEAQ    (BX)(R11*2), BX
	DECQ    CX
	JNZ     zkloop

zoddk:
	BTQ     $0, R12
	JCC     zdequant
	VMOVDQU (BX), X8
	VPXOR   X9, X9, X9
	KPAIRZ

zdequant:
	DEQUANTZ(0, Z0)
	DEQUANTZ(4, Z2)
	DEQUANTZ(8, Z4)
	DEQUANTZ(12, Z6)
	MOVBLZX relu+64(FP), CX
	TESTQ   CX, CX
	JZ      zstore
	VMAXPS  Z15, Z0, Z0
	VMAXPS  Z15, Z2, Z2
	VMAXPS  Z15, Z4, Z4
	VMAXPS  Z15, Z6, Z6

zstore:
	LEAQ    (DI)(R13*4), BX      // &dst[0][j]
	LEAQ    (R11*4), CX          // row stride of dst in bytes
	VMOVUPS Z0, (BX)
	ADDQ    CX, BX
	VMOVUPS Z2, (BX)
	ADDQ    CX, BX
	VMOVUPS Z4, (BX)
	ADDQ    CX, BX
	VMOVUPS Z6, (BX)
	ADDQ    $16, R13
	JMP     zblock

zdone:
	VZEROUPPER
	RET

// dotIdx spreads dword i of a register over 128-bit lane i (VPERMD):
// the i-th of four activation pairs against the four rows of k-pair i.
DATA dotIdx<>+0(SB)/4, $0
DATA dotIdx<>+4(SB)/4, $0
DATA dotIdx<>+8(SB)/4, $0
DATA dotIdx<>+12(SB)/4, $0
DATA dotIdx<>+16(SB)/4, $1
DATA dotIdx<>+20(SB)/4, $1
DATA dotIdx<>+24(SB)/4, $1
DATA dotIdx<>+28(SB)/4, $1
DATA dotIdx<>+32(SB)/4, $2
DATA dotIdx<>+36(SB)/4, $2
DATA dotIdx<>+40(SB)/4, $2
DATA dotIdx<>+44(SB)/4, $2
DATA dotIdx<>+48(SB)/4, $3
DATA dotIdx<>+52(SB)/4, $3
DATA dotIdx<>+56(SB)/4, $3
DATA dotIdx<>+60(SB)/4, $3
GLOBL dotIdx<>(SB), RODATA|NOPTR, $64

// func dotPanelInt8Z(acc *int32, pairs *int16, x *int8, k8 int)
//
// dotPanelInt8's contract on one ZMM: the 64 bytes the pair layout
// stores for four consecutive k-pairs are one load, the eight codes of
// x they meet are sign-extended and spread by VPERMD so that 128-bit
// lane i holds pair i four times, and one VPMADDWD + VPADDD advances the
// four rows by eight terms. The four lanes are summed at the end; int32
// sums are exact here, so the order is free.
TEXT ·dotPanelInt8Z(SB), NOSPLIT, $0-32
	MOVQ      acc+0(FP), DI
	MOVQ      pairs+8(FP), SI
	MOVQ      x+16(FP), DX
	MOVQ      k8+24(FP), CX
	VPXORD    Z0, Z0, Z0
	VMOVDQU32 dotIdx<>(SB), Z7
	TESTQ     CX, CX
	JZ        zdotsum

zdotloop:
	VPMOVSXBW (DX), X4
	VPERMD    Z4, Z7, Z5
	VPMADDWD  (SI), Z5, Z6
	VPADDD    Z6, Z0, Z0
	ADDQ      $64, SI
	ADDQ      $8, DX
	DECQ      CX
	JNZ       zdotloop

zdotsum:
	VEXTRACTI32X4 $1, Z0, X1
	VEXTRACTI32X4 $2, Z0, X2
	VEXTRACTI32X4 $3, Z0, X3
	VPADDD        X1, X0, X0
	VPADDD        X3, X2, X2
	VPADDD        X2, X0, X0
	VMOVDQU       X0, (DI)
	VZEROUPPER
	RET
