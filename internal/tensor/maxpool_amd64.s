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
