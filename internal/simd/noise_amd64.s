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

// func pack(dst *uint64, u *uint64, passes int, drop *uint64) (k int)
//
// Left-packs the values of u that drop leaves clear (bit b of drop[w]
// set drops u[64w+b]) into dst in order, 8 values per pass as two
// halves of 4: a half's keep nibble picks a VPERMD index vector from
// packPerm<> that moves its kept 64-bit lanes to the front, the whole
// vector is stored at the write cursor, and the cursor advances by the
// nibble's count (packCount<>). No branch depends on the data. A half
// stores 4 lanes, but only its kept ones survive the next half's store,
// so the last half leaves up to 3 stale lanes past the packed values;
// no store reaches past the half's own 4 inputs, which lets dst be u
// itself.
//
// Register map: DI dst cursor, SI u cursor, DX drop cursor, CX passes
// left, R10 passes left in this drop word, BX its keep bits (shifted a
// byte per pass), R8 packPerm<>, R9 packCount<>, R11 dst, R12/R13 the
// halves' counts; Y1/Y3 index vectors, Y0/Y2 permuted values.
TEXT ·pack(SB), NOSPLIT, $0-40
	MOVQ  dst+0(FP), DI
	MOVQ  u+8(FP), SI
	MOVQ  passes+16(FP), CX
	MOVQ  drop+24(FP), DX
	MOVQ  DI, R11
	LEAQ  packPerm<>(SB), R8
	LEAQ  packCount<>(SB), R9
	TESTQ CX, CX
	JZ    packed

word:
	MOVQ    (DX), BX
	NOTQ    BX
	ADDQ    $8, DX
	MOVQ    $8, R10
	CMPQ    CX, R10
	CMOVQLT CX, R10
	SUBQ    R10, CX

pass8:
	MOVQ    BX, AX
	ANDQ    $15, AX
	MOVBQZX (R9)(AX*1), R12
	SHLQ    $5, AX
	VMOVDQU (R8)(AX*1), Y1
	VPERMD  (SI), Y1, Y0
	MOVQ    BX, AX
	SHRQ    $4, AX
	ANDQ    $15, AX
	MOVBQZX (R9)(AX*1), R13
	SHLQ    $5, AX
	VMOVDQU (R8)(AX*1), Y3
	VPERMD  32(SI), Y3, Y2
	VMOVDQU Y0, (DI)
	LEAQ    (DI)(R12*8), DI
	VMOVDQU Y2, (DI)
	LEAQ    (DI)(R13*8), DI
	ADDQ    $64, SI
	SHRQ    $8, BX
	DECQ    R10
	JNZ     pass8
	TESTQ   CX, CX
	JNZ     word

packed:
	SUBQ       R11, DI
	SHRQ       $3, DI
	MOVQ       DI, k+32(FP)
	VZEROUPPER
	RET

// packPerm<> holds one VPERMD index vector per keep nibble m (bit q set
// keeps lane q): the dword pairs 2q, 2q+1 of the kept lanes in order,
// then lane 0's pair to fill. packCount<> holds each nibble's count.
DATA packPerm<>+0(SB)/8, $0x0000000100000000
DATA packPerm<>+8(SB)/8, $0x0000000100000000
DATA packPerm<>+16(SB)/8, $0x0000000100000000
DATA packPerm<>+24(SB)/8, $0x0000000100000000
DATA packPerm<>+32(SB)/8, $0x0000000100000000
DATA packPerm<>+40(SB)/8, $0x0000000100000000
DATA packPerm<>+48(SB)/8, $0x0000000100000000
DATA packPerm<>+56(SB)/8, $0x0000000100000000
DATA packPerm<>+64(SB)/8, $0x0000000300000002
DATA packPerm<>+72(SB)/8, $0x0000000100000000
DATA packPerm<>+80(SB)/8, $0x0000000100000000
DATA packPerm<>+88(SB)/8, $0x0000000100000000
DATA packPerm<>+96(SB)/8, $0x0000000100000000
DATA packPerm<>+104(SB)/8, $0x0000000300000002
DATA packPerm<>+112(SB)/8, $0x0000000100000000
DATA packPerm<>+120(SB)/8, $0x0000000100000000
DATA packPerm<>+128(SB)/8, $0x0000000500000004
DATA packPerm<>+136(SB)/8, $0x0000000100000000
DATA packPerm<>+144(SB)/8, $0x0000000100000000
DATA packPerm<>+152(SB)/8, $0x0000000100000000
DATA packPerm<>+160(SB)/8, $0x0000000100000000
DATA packPerm<>+168(SB)/8, $0x0000000500000004
DATA packPerm<>+176(SB)/8, $0x0000000100000000
DATA packPerm<>+184(SB)/8, $0x0000000100000000
DATA packPerm<>+192(SB)/8, $0x0000000300000002
DATA packPerm<>+200(SB)/8, $0x0000000500000004
DATA packPerm<>+208(SB)/8, $0x0000000100000000
DATA packPerm<>+216(SB)/8, $0x0000000100000000
DATA packPerm<>+224(SB)/8, $0x0000000100000000
DATA packPerm<>+232(SB)/8, $0x0000000300000002
DATA packPerm<>+240(SB)/8, $0x0000000500000004
DATA packPerm<>+248(SB)/8, $0x0000000100000000
DATA packPerm<>+256(SB)/8, $0x0000000700000006
DATA packPerm<>+264(SB)/8, $0x0000000100000000
DATA packPerm<>+272(SB)/8, $0x0000000100000000
DATA packPerm<>+280(SB)/8, $0x0000000100000000
DATA packPerm<>+288(SB)/8, $0x0000000100000000
DATA packPerm<>+296(SB)/8, $0x0000000700000006
DATA packPerm<>+304(SB)/8, $0x0000000100000000
DATA packPerm<>+312(SB)/8, $0x0000000100000000
DATA packPerm<>+320(SB)/8, $0x0000000300000002
DATA packPerm<>+328(SB)/8, $0x0000000700000006
DATA packPerm<>+336(SB)/8, $0x0000000100000000
DATA packPerm<>+344(SB)/8, $0x0000000100000000
DATA packPerm<>+352(SB)/8, $0x0000000100000000
DATA packPerm<>+360(SB)/8, $0x0000000300000002
DATA packPerm<>+368(SB)/8, $0x0000000700000006
DATA packPerm<>+376(SB)/8, $0x0000000100000000
DATA packPerm<>+384(SB)/8, $0x0000000500000004
DATA packPerm<>+392(SB)/8, $0x0000000700000006
DATA packPerm<>+400(SB)/8, $0x0000000100000000
DATA packPerm<>+408(SB)/8, $0x0000000100000000
DATA packPerm<>+416(SB)/8, $0x0000000100000000
DATA packPerm<>+424(SB)/8, $0x0000000500000004
DATA packPerm<>+432(SB)/8, $0x0000000700000006
DATA packPerm<>+440(SB)/8, $0x0000000100000000
DATA packPerm<>+448(SB)/8, $0x0000000300000002
DATA packPerm<>+456(SB)/8, $0x0000000500000004
DATA packPerm<>+464(SB)/8, $0x0000000700000006
DATA packPerm<>+472(SB)/8, $0x0000000100000000
DATA packPerm<>+480(SB)/8, $0x0000000100000000
DATA packPerm<>+488(SB)/8, $0x0000000300000002
DATA packPerm<>+496(SB)/8, $0x0000000500000004
DATA packPerm<>+504(SB)/8, $0x0000000700000006
GLOBL packPerm<>(SB), RODATA|NOPTR, $512

DATA packCount<>+0(SB)/8, $0x0302020102010100
DATA packCount<>+8(SB)/8, $0x0403030203020201
GLOBL packCount<>(SB), RODATA|NOPTR, $16
