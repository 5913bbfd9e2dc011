//go:build !purego

#include "textflag.h"

// The 2×2 / stride-2 max pool, bit-identical to the scalar loop of
// MaxPool2x2 (maxpool.go): each lane is one output's own four compares,
// in window order, from -Inf. MAXPS returns its second source operand
// when either input is NaN or both are zeros, so with the running best
// as the *second* source, max(v, best) is exactly
// `if v > best { best = v }`: NaN never wins and of equal zeros the
// first one seen stays. All four values go through it, the first one
// against a register of -Inf — starting from the first value instead
// would let a leading NaN through, which the scalar loop drops.
//
// Operand order below is Go's: OP src2, src1, dst.

// POOL_STEP8 pools eight outputs: sixteen floats of each input row at
// (SI)(CX*8) and (DX)(CX*8), split into even and odd columns by
// VSHUFPS, which works within 128-bit lanes and so leaves the outputs
// as qwords 0 2 1 3 — VPERMPD $0xD8 puts them back in order.
#define POOL_STEP8 \
	VMOVUPS (SI)(CX*8), Y0;    \
	VMOVUPS 32(SI)(CX*8), Y1;  \
	VMOVUPS (DX)(CX*8), Y2;    \
	VMOVUPS 32(DX)(CX*8), Y3;  \
	VSHUFPS $0x88, Y1, Y0, Y4; \
	VSHUFPS $0xDD, Y1, Y0, Y5; \
	VSHUFPS $0x88, Y3, Y2, Y6; \
	VSHUFPS $0xDD, Y3, Y2, Y7; \
	VMAXPS  Y15, Y4, Y8;       \
	VMAXPS  Y8, Y5, Y8;        \
	VMAXPS  Y8, Y6, Y8;        \
	VMAXPS  Y8, Y7, Y8;        \
	VPERMPD $0xD8, Y8, Y8;     \
	VMOVUPS Y8, (DI)(CX*4)

// POOL_STEP4 is the XMM form, four outputs from eight floats of each
// row; one lane, so the outputs come out in order.
#define POOL_STEP4 \
	VMOVUPS (SI)(CX*8), X0;    \
	VMOVUPS 16(SI)(CX*8), X1;  \
	VMOVUPS (DX)(CX*8), X2;    \
	VMOVUPS 16(DX)(CX*8), X3;  \
	VSHUFPS $0x88, X1, X0, X4; \
	VSHUFPS $0xDD, X1, X0, X5; \
	VSHUFPS $0x88, X3, X2, X6; \
	VSHUFPS $0xDD, X3, X2, X7; \
	VMAXPS  X15, X4, X8;       \
	VMAXPS  X8, X5, X8;        \
	VMAXPS  X8, X6, X8;        \
	VMAXPS  X8, X7, X8;        \
	VMOVUPS X8, (DI)(CX*4)

// func maxPool2x2(dst, src *float32, oh, ow, stride int)
//
// oh output rows of ow ≥ 4 outputs each: dst is dense, src rows are
// stride floats apart. A row is covered in blocks of eight outputs
// (four when ow < 8); the last block ends at ow whatever ow is,
// overlapping the one before it — a store of the same bits twice. The
// caller guarantees ow ≥ 4 and that every address is in range.
TEXT ·maxPool2x2(SB), NOSPLIT, $0-40
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         oh+16(FP), R8
	MOVQ         ow+24(FP), R9
	MOVQ         stride+32(FP), R10
	SHLQ         $2, R10             // input row stride in bytes
	LEAQ         (R9*4), R11         // output row in bytes
	MOVL         $0xFF800000, AX     // -Inf
	MOVQ         AX, X15
	VBROADCASTSS X15, Y15
	TESTQ        R8, R8
	JZ           done
	CMPQ         R9, $8
	JLT          rows4

rows8:
	LEAQ -8(R9), R12                 // first output of the last block
	LEAQ (SI)(R10*1), DX             // the window's second row
	XORQ CX, CX

block8:
	CMPQ CX, R12
	JLE  step8
	CMPQ CX, R9
	JGE  next8                       // ox reached ow: the row is stored
	MOVQ R12, CX                     // ragged tail: one overlapping block

step8:
	POOL_STEP8
	ADDQ $8, CX
	JMP  block8

next8:
	LEAQ (SI)(R10*2), SI
	ADDQ R11, DI
	DECQ R8
	JNZ  rows8
	JMP  done

rows4:
	LEAQ -4(R9), R12
	LEAQ (SI)(R10*1), DX
	XORQ CX, CX

block4:
	CMPQ CX, R12
	JLE  step4
	CMPQ CX, R9
	JGE  next4
	MOVQ R12, CX

step4:
	POOL_STEP4
	ADDQ $4, CX
	JMP  block4

next4:
	LEAQ (SI)(R10*2), SI
	ADDQ R11, DI
	DECQ R8
	JNZ  rows4

done:
	VZEROUPPER
	RET

// func maxBins(dst *float32, dstStride int, src *float32, srcStride, planes, w int, rows *int, oh int, cols *int, ow int)
//
// The adaptive bins of MaxBins (maxpool.go), plane after plane: bin
// (oy, ox) covers rows [rows[2oy], rows[2oy+1]) and columns
// [cols[2ox], cols[2ox+1]) of the plane and is scanned in row-major
// order with one VMAXSS per input, the input as the first source and
// the running best, from -Inf, as the second — `if v > best { best = v }`
// as above, with no branch on the data. A bin row's columns are walked
// by a negative index up to the row's end. Counters that do not fit in
// registers live in the frame: 0(SP) bins left in the row, 8(SP) bin
// rows left, 16(SP) columns per bin, 24(SP) rows per bin. The caller
// guarantees every bin is non-empty and every address in range.
TEXT ·maxBins(SB), NOSPLIT, $32-80
	MOVQ  dst+0(FP), DI
	MOVQ  dstStride+8(FP), R8
	SHLQ  $2, R8                     // output plane stride in bytes
	MOVQ  src+16(FP), SI
	MOVQ  srcStride+24(FP), R9
	SHLQ  $2, R9                     // input plane stride in bytes
	MOVQ  w+40(FP), R10
	SHLQ  $2, R10                    // input row stride in bytes
	MOVL  $0xFF800000, AX            // -Inf
	MOVQ  AX, X15
	MOVQ  planes+32(FP), R11
	TESTQ R11, R11
	JZ    mbdone

mbplane:
	MOVQ DI, BX                      // the plane's next output
	MOVQ rows+48(FP), R12
	MOVQ oh+56(FP), AX
	MOVQ AX, 8(SP)

mbrow:
	MOVQ 8(R12), AX
	SUBQ (R12), AX
	MOVQ AX, 24(SP)
	MOVQ cols+64(FP), R14
	MOVQ ow+72(FP), AX
	MOVQ AX, 0(SP)

mbbin:
	MOVQ    (R14), R13               // x0
	MOVQ    8(R14), AX
	SUBQ    R13, AX
	MOVQ    AX, 16(SP)
	ADDQ    AX, R13                  // x1
	MOVQ    (R12), AX                // y0
	IMULQ   R10, AX
	LEAQ    (AX)(R13*4), R13
	ADDQ    SI, R13                  // one past the bin's first row
	MOVQ    24(SP), CX
	VMOVAPS X15, X0                  // best = -Inf

mbscan:
	MOVQ 16(SP), DX
	NEGQ DX

mbcell:
	VMOVSS (R13)(DX*4), X1
	VMAXSS X0, X1, X0                // best = v > best ? v : best
	INCQ   DX
	JNZ    mbcell
	ADDQ   R10, R13
	DECQ   CX
	JNZ    mbscan
	VMOVSS X0, (BX)
	ADDQ   $4, BX
	ADDQ   $16, R14
	DECQ   0(SP)
	JNZ    mbbin
	ADDQ   $16, R12
	DECQ   8(SP)
	JNZ    mbrow
	ADDQ   R8, DI
	ADDQ   R9, SI
	DECQ   R11
	JNZ    mbplane

mbdone:
	RET

// poolIdx holds the VPERMT2PS indices that pick the even (first 64
// bytes) and the odd (last 64) floats of a 32-float pair of registers.
DATA poolIdx<>+0(SB)/4, $0
DATA poolIdx<>+4(SB)/4, $2
DATA poolIdx<>+8(SB)/4, $4
DATA poolIdx<>+12(SB)/4, $6
DATA poolIdx<>+16(SB)/4, $8
DATA poolIdx<>+20(SB)/4, $10
DATA poolIdx<>+24(SB)/4, $12
DATA poolIdx<>+28(SB)/4, $14
DATA poolIdx<>+32(SB)/4, $16
DATA poolIdx<>+36(SB)/4, $18
DATA poolIdx<>+40(SB)/4, $20
DATA poolIdx<>+44(SB)/4, $22
DATA poolIdx<>+48(SB)/4, $24
DATA poolIdx<>+52(SB)/4, $26
DATA poolIdx<>+56(SB)/4, $28
DATA poolIdx<>+60(SB)/4, $30
DATA poolIdx<>+64(SB)/4, $1
DATA poolIdx<>+68(SB)/4, $3
DATA poolIdx<>+72(SB)/4, $5
DATA poolIdx<>+76(SB)/4, $7
DATA poolIdx<>+80(SB)/4, $9
DATA poolIdx<>+84(SB)/4, $11
DATA poolIdx<>+88(SB)/4, $13
DATA poolIdx<>+92(SB)/4, $15
DATA poolIdx<>+96(SB)/4, $17
DATA poolIdx<>+100(SB)/4, $19
DATA poolIdx<>+104(SB)/4, $21
DATA poolIdx<>+108(SB)/4, $23
DATA poolIdx<>+112(SB)/4, $25
DATA poolIdx<>+116(SB)/4, $27
DATA poolIdx<>+120(SB)/4, $29
DATA poolIdx<>+124(SB)/4, $31
GLOBL poolIdx<>(SB), RODATA|NOPTR, $128

// POOL_STEP16 pools sixteen outputs: thirty-two floats of each input
// row, split into even and odd columns by VPERMT2PS (which overwrites
// its first table, so each split starts from a copy), then the same
// four VMAXPS in window order from -Inf as POOL_STEP8. The permute
// crosses lanes, so the outputs come out in order.
#define POOL_STEP16 \
	VMOVUPS   (SI)(CX*8), Z0;   \
	VMOVUPS   64(SI)(CX*8), Z1; \
	VMOVUPS   (DX)(CX*8), Z2;   \
	VMOVUPS   64(DX)(CX*8), Z3; \
	VMOVAPS   Z0, Z4;           \
	VPERMT2PS Z1, Z13, Z4;      \
	VMOVAPS   Z0, Z5;           \
	VPERMT2PS Z1, Z14, Z5;      \
	VMOVAPS   Z2, Z6;           \
	VPERMT2PS Z3, Z13, Z6;      \
	VMOVAPS   Z2, Z7;           \
	VPERMT2PS Z3, Z14, Z7;      \
	VMAXPS    Z15, Z4, Z8;      \
	VMAXPS    Z8, Z5, Z8;       \
	VMAXPS    Z8, Z6, Z8;       \
	VMAXPS    Z8, Z7, Z8;       \
	VMOVUPS   Z8, (DI)(CX*4)

// func maxPool2x2Z(dst, src *float32, oh, ow, stride int)
//
// maxPool2x2 in blocks of sixteen outputs (AVX-512F; useAVX512), the
// last block ending at ow. The caller guarantees ow ≥ 16 and that every
// address is in range.
TEXT ·maxPool2x2Z(SB), NOSPLIT, $0-40
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         oh+16(FP), R8
	MOVQ         ow+24(FP), R9
	MOVQ         stride+32(FP), R10
	SHLQ         $2, R10             // input row stride in bytes
	LEAQ         (R9*4), R11         // output row in bytes
	MOVL         $0xFF800000, AX     // -Inf
	MOVQ         AX, X15
	VBROADCASTSS X15, Z15
	VMOVUPS      poolIdx<>(SB), Z13
	VMOVUPS      poolIdx<>+64(SB), Z14
	TESTQ        R8, R8
	JZ           zpdone

zrows:
	LEAQ -16(R9), R12                // first output of the last block
	LEAQ (SI)(R10*1), DX             // the window's second row
	XORQ CX, CX

zblock16:
	CMPQ CX, R12
	JLE  zstep16
	CMPQ CX, R9
	JGE  znext
	MOVQ R12, CX                     // ragged tail: one overlapping block

zstep16:
	POOL_STEP16
	ADDQ $16, CX
	JMP  zblock16

znext:
	LEAQ (SI)(R10*2), SI
	ADDQ R11, DI
	DECQ R8
	JNZ  zrows

zpdone:
	VZEROUPPER
	RET
