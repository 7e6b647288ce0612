//go:build !noasm

#include "textflag.h"

// func lagFill(y *uint64, n int)
//
// Extends math/rand's additive lagged-Fibonacci sequence by n values:
//
//   y[k] = y[k-607] + y[k-273]  (mod 2⁶⁴)   for 607 ≤ k < 607+n
//
// Integer adds are exact, and every term a pass reads lies at least
// 273−16 values behind the pass's own stores, so 16 values per pass
// (four VPADDQ of four lanes) give the scalar loop's sequence. n must be
// a multiple of 16.
//
// Register map: SI &y[k-607] of the pass, CX values left; Y0–Y3 sums.
TEXT ·lagFill(SB), NOSPLIT, $0-16
	MOVQ  y+0(FP), SI
	MOVQ  n+8(FP), CX
	TESTQ CX, CX
	JZ    filled

fill:
	VMOVDQU (SI), Y0
	VMOVDQU 32(SI), Y1
	VMOVDQU 64(SI), Y2
	VMOVDQU 96(SI), Y3
	VPADDQ  (334*8)(SI), Y0, Y0      // + y[k-273]
	VPADDQ  (334*8+32)(SI), Y1, Y1
	VPADDQ  (334*8+64)(SI), Y2, Y2
	VPADDQ  (334*8+96)(SI), Y3, Y3
	VMOVDQU Y0, (607*8)(SI)          // y[k]
	VMOVDQU Y1, (607*8+32)(SI)
	VMOVDQU Y2, (607*8+64)(SI)
	VMOVDQU Y3, (607*8+96)(SI)
	ADDQ    $128, SI
	SUBQ    $16, CX
	JNZ     fill

filled:
	VZEROUPPER
	RET

// Both ziggurat kernels start from the same draw unpacking: for 8 raw
// draws at (SI), Y2 = [j0 … j7] with j = int32(u >> 31) (the low dword of
// each u>>31, packed in draw order by VSHUFPS + VPERMQ) and Y3 = j & 127.
#define UNPACK \
	VMOVDQU (SI), Y0; \
	VMOVDQU 32(SI), Y1; \
	VPSRLQ  $31, Y0, Y0; \
	VPSRLQ  $31, Y1, Y1; \
	VSHUFPS $0x88, Y1, Y0, Y2; \
	VPERMQ  $0xD8, Y2, Y2; \
	VPAND   Y14, Y2, Y3

// LANES127 sets Y14 = 127 in every dword lane.
#define LANES127 \
	MOVL         $127, AX; \
	VMOVD        AX, X14; \
	VPBROADCASTD X14, Y14

// REJECT8(sh) ORs the rejection bits of the 8 draws at (SI) into R8 at
// bit sh: lane b is rejected when |j| ≥ kn[i] unsigned, found as
// max(|j|, kn[i]) = |j| (VPABSD maps −2³¹ to 2³¹ like absInt32).
#define REJECT8(sh) \
	UNPACK; \
	VPCMPEQD   Y4, Y4, Y4; \
	VPGATHERDD Y4, (BX)(Y3*4), Y5; \
	VPABSD     Y2, Y7; \
	VPMAXUD    Y5, Y7, Y5; \
	VPCMPEQD   Y7, Y5, Y5; \
	VMOVMSKPS  Y5, AX; \
	SHLQ       $sh, AX; \
	ORQ        AX, R8; \
	ADDQ       $64, SI

// func zigReject(flags *uint64, u *uint64, words int, kn *uint32)
//
// Flags the draws the ziggurat fast path of math/rand's NormFloat64
// rejects: bit b of flags[w] is set exactly when u[64w+b] has
// |j| ≥ kn[j&127], j = int32(u>>31), as unsigned integers. Integer-only,
// so exact; one word is 8 passes of 8 draws (VPGATHERDD of kn).
//
// Register map: DI flags cursor, SI u cursor, CX words left, BX kn, R8
// the word being built; Y14 127.
TEXT ·zigReject(SB), NOSPLIT, $0-32
	MOVQ  flags+0(FP), DI
	MOVQ  u+8(FP), SI
	MOVQ  words+16(FP), CX
	MOVQ  kn+24(FP), BX
	LANES127
	TESTQ CX, CX
	JZ    flagged

word:
	XORQ R8, R8
	REJECT8(0)
	REJECT8(8)
	REJECT8(16)
	REJECT8(24)
	REJECT8(32)
	REJECT8(40)
	REJECT8(48)
	REJECT8(56)
	MOVQ R8, (DI)
	ADDQ $8, DI
	DECQ CX
	JNZ  word

flagged:
	VZEROUPPER
	RET

// func normAdd(x *complex128, n int, u *uint64, wn *float32, sigma float64)
//
// The ziggurat fast path's value added into complex samples, two draws
// per sample (real part first), for draws the caller knows are
// accepted:
//
//   x[q] = x[q] + (float64(j)·float64(wn[j&127]))·sigma   per part
//
// (VCVTDQ2PD, VCVTPS2PD, VMULPD, VMULPD, VADDPD), signal.normAddGo's
// operation order. A pass covers 4 samples (8 draws, one VPGATHERDD of
// wn); the last n mod 4 samples take the same steps one sample at a
// time in xmm registers (VCVTSI2SDL, VCVTSS2SD, VMULSD, VMULSD,
// VUNPCKLPD, VADDPD).
//
// Register map: DI x cursor, SI u cursor, CX whole passes left, R10
// samples left after them, DX wn, AX/R9 scalar j and i; Y8/Y9 samples
// 0–1/2–3 of the pass, Y10/Y11 float64(wn), Y14 127, Y15 sigma.
TEXT ·normAdd(SB), NOSPLIT, $0-40
	MOVQ         x+0(FP), DI
	MOVQ         n+8(FP), CX
	MOVQ         u+16(FP), SI
	MOVQ         wn+24(FP), DX
	VBROADCASTSD sigma+32(FP), Y15
	LANES127
	MOVQ         CX, R10
	ANDQ         $3, R10
	SHRQ         $2, CX
	JZ           tail

pass:
	UNPACK
	VPCMPEQD     Y4, Y4, Y4
	VPGATHERDD   Y4, (DX)(Y3*4), Y6
	VCVTDQ2PD    X2, Y8
	VEXTRACTI128 $1, Y2, X9
	VCVTDQ2PD    X9, Y9
	VCVTPS2PD    X6, Y10
	VEXTRACTI128 $1, Y6, X11
	VCVTPS2PD    X11, Y11
	VMULPD       Y10, Y8, Y8
	VMULPD       Y11, Y9, Y9
	VMULPD       Y15, Y8, Y8
	VMULPD       Y15, Y9, Y9
	VADDPD       (DI), Y8, Y8
	VADDPD       32(DI), Y9, Y9
	VMOVUPD      Y8, (DI)
	VMOVUPD      Y9, 32(DI)
	ADDQ         $64, DI
	ADDQ         $64, SI
	DECQ         CX
	JNZ          pass

tail:
	TESTQ        R10, R10
	JZ           added

sample:
	MOVQ         (SI), AX
	SHRQ         $31, AX
	MOVL         AX, R9
	ANDL         $127, R9
	VCVTSI2SDL   AX, X0, X0
	VCVTSS2SD    (DX)(R9*4), X1, X1
	VMULSD       X1, X0, X0
	VMULSD       X15, X0, X0
	MOVQ         8(SI), AX
	SHRQ         $31, AX
	MOVL         AX, R9
	ANDL         $127, R9
	VCVTSI2SDL   AX, X2, X2
	VCVTSS2SD    (DX)(R9*4), X3, X3
	VMULSD       X3, X2, X2
	VMULSD       X15, X2, X2
	VUNPCKLPD    X2, X0, X0
	VADDPD       (DI), X0, X0
	VMOVUPD      X0, (DI)
	ADDQ         $16, DI
	ADDQ         $16, SI
	DECQ         R10
	JNZ          sample

added:
	VZEROUPPER
	RET
