//go:build !purego

#include "textflag.h"

// pixelRunKernel converts pixel tokens spelled "0." + 1 to 9 digits + ','
// to the float32s pixelToken (clipjson.go) returns, up to eight tokens per
// 64-byte window, one token per 64-bit lane. Every operation is an exact
// integer one or a correctly rounded IEEE one under the round-to-nearest
// the scalar code uses: the digits become the same integer pixelToken
// builds, and VCVTUQQ2PD (exact below 2^53), VMULPD and VCVTPD2PS then
// round as its float64 conversion, multiply and float32 conversion do.
//
// One step, at the window W = b[0:64]:
//
//  1. VPCMPEQB gives the bytes that are ',' (M), '0', '.' and, through
//     an unsigned compare of c-'0' with 10, digits. PDEP of 0xff over M
//     keeps its first eight commas; VPCOMPRESSB of an iota vector under
//     that mask puts their offsets e_0..e_7 in the low bytes of a
//     register of 0xff.
//  2. Bytes: token j starts at s_j = e_{j-1}+1 (s_0 = 0), so the starts
//     are S = M<<1 | 1. A byte is bad when it is a start but not '0',
//     the byte after a start but not '.', or neither of those and
//     neither a comma nor a digit. Tokens whose comma lies before the
//     first bad byte (TZCNT, BZHI, POPCNT) have the token shape but
//     perhaps the digit count.
//  3. Lanes: VPMOVZXBQ widens e_j to qword j and VALIGNQ shifts in -1
//     for e_{-1}, so m_j = e_j - e_{j-1} - 4 is the digit count less
//     one; lanes with m ≤ 8 (1 to 9 digits) pass. VPERMB gathers
//     W[s_j+2 .. s_j+10) into qword j, where pixelToken loads its eight
//     digit bytes, and W[s_j+10], its ninth, into the low byte of
//     qword j of another register.
//  4. As in pixelToken, the digits are shifted by 64 - 8·min(n,8) to
//     the top of the lane, zeros below, and combined in pairs, pairs of
//     pairs, and halves: 10·d + d' by VPMULLW (mod 2^16, exact for
//     digits) and a shift, 100·p + p' by VPMADDWD, 10000·h + h' by
//     VPMULUDQ — every partial sum below 10^8, so none wraps. Lanes with
//     nine digits take a masked ×10 + ninth digit. VCVTUQQ2PD, VMULPD by
//     negPow10[n] (VPERMI2PD over negPow10[1:17]), roundFloat32's guard
//     on the float64 bits, and VCVTPD2PS finish them.
//  5. k, the tokens of the step, is the lesser of the token count from
//     step 2 and the first lane that fails step 3's count or the guard.
//     A masked store writes k floats. A step that converted every comma
//     it found moves past the last of them and goes on while 64 bytes
//     and 8 slots remain; any other moves past the k-th comma and stops
//     the run. The next window's offset is thus known from the comma
//     mask alone, and steps overlap.
//
// Operand order below is Go's: OP src2, src1, dst.

// Byte k is k: VPCOMPRESSB turns comma positions into offsets.
DATA pixelRunIota<>+0(SB)/8, $0x0706050403020100
DATA pixelRunIota<>+8(SB)/8, $0x0f0e0d0c0b0a0908
DATA pixelRunIota<>+16(SB)/8, $0x1716151413121110
DATA pixelRunIota<>+24(SB)/8, $0x1f1e1d1c1b1a1918
DATA pixelRunIota<>+32(SB)/8, $0x2726252423222120
DATA pixelRunIota<>+40(SB)/8, $0x2f2e2d2c2b2a2928
DATA pixelRunIota<>+48(SB)/8, $0x3736353433323130
DATA pixelRunIota<>+56(SB)/8, $0x3f3e3d3c3b3a3938
GLOBL pixelRunIota<>(SB), RODATA|NOPTR, $64

// Byte 8j+m is (j-1) mod 64: VPERMB over the compressed offsets fills
// qword j with e_{j-1}, and qword 0 with byte 63, which is 0xff (-1).
DATA pixelRunPrev<>+0(SB)/8, $0x3f3f3f3f3f3f3f3f
DATA pixelRunPrev<>+8(SB)/8, $0x0000000000000000
DATA pixelRunPrev<>+16(SB)/8, $0x0101010101010101
DATA pixelRunPrev<>+24(SB)/8, $0x0202020202020202
DATA pixelRunPrev<>+32(SB)/8, $0x0303030303030303
DATA pixelRunPrev<>+40(SB)/8, $0x0404040404040404
DATA pixelRunPrev<>+48(SB)/8, $0x0505050505050505
DATA pixelRunPrev<>+56(SB)/8, $0x0606060606060606
GLOBL pixelRunPrev<>(SB), RODATA|NOPTR, $64

// func pixelRunKernel(dst *float32, room int, b *byte, n int) (k, adv int)
TEXT ·pixelRunKernel(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ room+8(FP), R8
	MOVQ b+16(FP), SI
	MOVQ n+24(FP), CX
	XORQ R9, R9              // k: floats written
	XORQ R10, R10            // adv: bytes consumed
	CMPQ CX, $64
	JLT  done
	CMPQ R8, $8
	JLT  done

	MOVL         $0x2c, AX
	VPBROADCASTB AX, Z31     // ','
	MOVL         $0x30, AX
	VPBROADCASTB AX, Z30     // '0'
	MOVL         $0x2e, AX
	VPBROADCASTB AX, Z29     // '.'
	MOVL         $10, AX
	VPBROADCASTB AX, Z27
	VMOVDQU64    pixelRunIota<>(SB), Z28
	VMOVDQU64    pixelRunPrev<>(SB), Z25
	VPTERNLOGD   $0xff, Z26, Z26, Z26 // all ones: qword -1
	MOVQ         $0x0a09080706050403, AX
	VPBROADCASTQ AX, Z24     // byte m of each qword: 3+m
	MOVL         $8, AX
	VPBROADCASTQ AX, Z22
	MOVL         $2561, AX   // 10<<8 + 1
	VPBROADCASTW AX, Z21
	MOVL         $0x00010064, AX // words 100, 1
	VPBROADCASTD AX, Z20
	VMOVUPD      ·negPow10+8(SB), Z19  // negPow10[1:9]
	VMOVUPD      ·negPow10+72(SB), Z18 // negPow10[9:17]
	MOVL         $10000, AX
	VPBROADCASTQ AX, Z17
	MOVL         $10, AX
	VPBROADCASTQ AX, Z14
	MOVL         $0xff, AX
	VPBROADCASTQ AX, Z13
	MOVL         $4, AX
	VPBROADCASTQ AX, Z11
	MOVL         $7, AX
	VPBROADCASTQ AX, Z10
	MOVL         $0x1fffffff, AX // 1<<29 - 1
	VPBROADCASTQ AX, Z9
	MOVL         $0x0ffffffc, AX // 1<<28 - 4
	VPBROADCASTQ AX, Z8

loop:
	// 1. Byte classes and the first eight commas.
	VMOVDQU8    (SI), Z0
	VPCMPEQB    Z31, Z0, K1
	VPCMPEQB    Z30, Z0, K2
	VPCMPEQB    Z29, Z0, K3
	VPSUBB      Z30, Z0, Z1
	VPCMPUB     $1, Z27, Z1, K4 // c-'0' < 10: a digit
	KMOVQ       K1, AX          // M, the commas
	KMOVQ       K2, BX
	KMOVQ       K3, DX
	KMOVQ       K4, R11
	MOVL        $0xff, R12
	PDEPQ       AX, R12, R12    // the first eight commas
	KMOVQ       R12, K5
	VMOVDQA64   Z26, Z2
	VPCOMPRESSB Z28, K5, Z2     // bytes 0..7: e_j; the rest 0xff

	// 2. The first bad byte, and the commas before it.
	LEAQ    1(AX)(AX*1), R13 // S = M<<1 | 1
	LEAQ    (R13)(R13*1), R14 // the byte after each start
	ORQ     AX, R11
	ORQ     R13, R11
	ORQ     R14, R11
	NOTQ    R11              // none of start, after-start, comma, digit
	ANDNQ   R13, BX, BX      // a start that is not '0'
	ANDNQ   R14, DX, DX      // an after-start that is not '.'
	ORQ     BX, R11
	ORQ     DX, R11
	TZCNTQ  R11, R11         // 64 when no byte is bad
	BZHIQ   R11, R12, R13
	POPCNTQ R13, R13         // tokens of the right shape

	// 3. Digit counts and the gathers.
	VPMOVZXBQ X2, Z3          // e_j
	VALIGNQ   $7, Z26, Z3, Z4 // e_{j-1}, -1 in lane 0
	VPSUBQ    Z4, Z3, Z5
	VPSUBQ    Z11, Z5, Z5     // m = n-1
	VPCMPUQ   $2, Z22, Z5, K6 // m ≤ 8: 1 to 9 digits
	VPCMPEQQ  Z22, Z5, K7     // nine digits
	VPERMB    Z2, Z25, Z6     // qword j: e_{j-1} in every byte
	VPADDB    Z24, Z6, Z6     // byte m: s_j+2+m
	VPERMB    Z0, Z6, Z7      // W[s_j+2 : s_j+10]
	VPADDB    Z22, Z6, Z1     // byte 0: s_j+10
	VPERMB    Z0, Z1, Z1

	// 4. The digits' value, lane by lane.
	VPSUBB   Z30, Z7, Z7
	VPSUBB   Z30, Z1, Z1
	VPANDQ   Z13, Z1, Z1     // the ninth digit
	VPMINUQ  Z10, Z5, Z3
	VPSUBQ   Z3, Z10, Z3     // 8 - min(n,8)
	VPSLLQ   $3, Z3, Z3
	VPSLLVQ  Z3, Z7, Z7      // the digits at the top, zeros below
	VPMULLW  Z21, Z7, Z7
	VPSRLW   $8, Z7, Z7      // word k: 10·byte 2k + byte 2k+1
	VPMADDWD Z20, Z7, Z7     // dword k: 100·word 2k + word 2k+1
	VPSRLQ   $32, Z7, Z3
	VPMULUDQ Z17, Z7, Z7     // 10000·dword 0
	VPADDQ   Z3, Z7, Z7      // + dword 1
	VPMULUDQ Z14, Z7, K7, Z7 // nine digits: ×10
	VPADDQ   Z1, Z7, K7, Z7  // + the ninth

	VCVTUQQ2PD Z7, Z7
	VMOVDQA64  Z5, Z4
	VPERMI2PD  Z18, Z19, Z4   // negPow10[n]
	VMULPD     Z4, Z7, Z7
	VPANDQ     Z9, Z7, Z3
	VPSUBQ     Z8, Z3, Z3
	VPCMPUQ    $6, Z22, Z3, K6, K6 // roundFloat32 accepts: > 8
	VCVTPD2PS  Z7, Y7

	// 5. Store k floats. Where k is every comma found, move past the
	// last of them: that offset depends on the load and the comma mask
	// alone, so the next window's load need not wait for this one's
	// arithmetic.
	KMOVB   K6, BX
	NOTL    BX
	TZCNTL  BX, BX           // the first lane that fails, at most 8
	CMPQ    BX, R13
	CMOVQLT BX, R13          // k
	MOVL    $0xff, BX
	BZHIL   R13, BX, BX      // the low k lanes
	KMOVW   BX, K7
	VMOVUPS Z7, K7, (DI)
	TESTQ   R13, R13
	JZ      done
	POPCNTQ R12, DX          // the commas found
	CMPQ    R13, DX
	JNE     stop
	XORL    R14, R14         // BSR merges into its destination: break that chain
	BSRQ    R12, R14         // the last of them (R12 ≠ 0: k > 0)
	INCQ    R14
	ADDQ    R14, SI
	ADDQ    R14, R10
	SUBQ    R14, CX
	LEAQ    (DI)(DX*4), DI
	ADDQ    DX, R9
	SUBQ    DX, R8
	CMPQ    CX, $64
	JLT     done
	CMPQ    R8, $8
	JGE     loop
	JMP     done

stop:
	// A token stopped the run: move past the k-th comma.
	PDEPQ AX, BX, BX         // the first k commas
	BSRQ  BX, BX
	INCQ  BX
	ADDQ  BX, R10
	ADDQ  R13, R9

done:
	VZEROUPPER
	MOVQ R9, k+32(FP)
	MOVQ R10, adv+40(FP)
	RET
