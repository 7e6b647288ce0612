//go:build !noasm

#include "textflag.h"

// The elementwise complex kernels: scale, scalePower and divScale.
//
// Each product by the gain g = gr + i·gi is Go's complex product with
// all four real products kept (no FMA, the ·0 cross terms of a real
// gain included), two samples per ymm:
//
//   t1 = [xr·gr, xi·gr]          VMULPD by the broadcast real part
//   t2 = [xi·gi, xr·gi]          VPERMILPD $5 (swap), VMULPD by the
//                                broadcast imaginary part
//   v  = [t1−t2, t1+t2]          VADDSUBPD: xr·gr − xi·gi, xi·gr + xr·gi
//
// Go computes re = xr·gr − xi·gi and im = xr·gi + xi·gr, each product
// and each sum rounded once; the imaginary sum adds the same two
// rounded products in the other order, which IEEE addition makes exact.
// Passes take four samples, then one pair, then one sample in an xmm,
// so any length runs without a Go tail.
//
// Register map: DI dst, SI x, CX samples left, Y14 gr, Y15 gi; Y0–Y3
// samples, Y8/Y9 scratch.

#define CMUL(v, t) \
	VPERMILPD $5, v, t; \
	VMULPD    Y14, v, v; \
	VMULPD    Y15, t, t; \
	VADDSUBPD t, v, v

#define CMUL1(v, t) \
	VPERMILPD $1, v, t; \
	VMULPD    X14, v, v; \
	VMULPD    X15, t, t; \
	VADDSUBPD t, v, v

// func scale(dst, x *complex128, n int, gr, gi float64)
//
// dst[i] = x[i]·g for i < n. dst is x or does not overlap it.
TEXT ·scale(SB), NOSPLIT, $0-40
	MOVQ         dst+0(FP), DI
	MOVQ         x+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSD gr+24(FP), Y14
	VBROADCASTSD gi+32(FP), Y15
	CMPQ         CX, $4
	JB           spair

squad:
	VMOVUPD (SI), Y0
	VMOVUPD 32(SI), Y1
	CMUL(Y0, Y8)
	CMUL(Y1, Y9)
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	SUBQ    $4, CX
	CMPQ    CX, $4
	JAE     squad

spair:
	CMPQ    CX, $2
	JB      sone
	VMOVUPD (SI), Y0
	CMUL(Y0, Y8)
	VMOVUPD Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $2, CX

sone:
	TESTQ   CX, CX
	JZ      sdone
	VMOVUPD (SI), X0
	CMUL1(X0, X8)
	VMOVUPD X0, (DI)

sdone:
	VZEROUPPER
	RET

// func scalePower(x *complex128, n int, gr, gi float64) (p float64)
//
// x[i] *= g for i < n, and p = Σ (re² + im²) of the scaled samples,
// summed from +0 in index order. Each term is one VMULPD square and one
// VHADDPD pair sum, re² + im² rounded once (the add commutes exactly);
// the running sum is one scalar add per sample in index order, so it is
// the value the Go loop's p += re·re + im·im gives. VHADDPD of the
// squares of samples 0,1 (Y2) and 2,3 (Y3) holds the terms as
// [t0, t2 | t1, t3]; X7 is the sum.
TEXT ·scalePower(SB), NOSPLIT, $0-40
	MOVQ         x+0(FP), SI
	MOVQ         n+8(FP), CX
	VBROADCASTSD gr+16(FP), Y14
	VBROADCASTSD gi+24(FP), Y15
	VXORPD       X7, X7, X7
	CMPQ         CX, $4
	JB           ppair

pquad:
	VMOVUPD      (SI), Y0
	VMOVUPD      32(SI), Y1
	CMUL(Y0, Y8)
	CMUL(Y1, Y9)
	VMOVUPD      Y0, (SI)
	VMOVUPD      Y1, 32(SI)
	VMULPD       Y0, Y0, Y2
	VMULPD       Y1, Y1, Y3
	VHADDPD      Y3, Y2, Y2
	VEXTRACTF128 $1, Y2, X3
	VADDSD       X2, X7, X7   // + t0
	VADDSD       X3, X7, X7   // + t1
	VPERMILPD    $1, X2, X2
	VADDSD       X2, X7, X7   // + t2
	VPERMILPD    $1, X3, X3
	VADDSD       X3, X7, X7   // + t3
	ADDQ         $64, SI
	SUBQ         $4, CX
	CMPQ         CX, $4
	JAE          pquad

ppair:
	CMPQ         CX, $2
	JB           pone
	VMOVUPD      (SI), Y0
	CMUL(Y0, Y8)
	VMOVUPD      Y0, (SI)
	VMULPD       Y0, Y0, Y2
	VHADDPD      Y2, Y2, Y2   // [t0, t0 | t1, t1]
	VEXTRACTF128 $1, Y2, X3
	VADDSD       X2, X7, X7
	VADDSD       X3, X7, X7
	ADDQ         $32, SI
	SUBQ         $2, CX

pone:
	TESTQ        CX, CX
	JZ           pdone
	VMOVUPD      (SI), X0
	CMUL1(X0, X8)
	VMOVUPD      X0, (SI)
	VMULPD       X0, X0, X2
	VHADDPD      X2, X2, X2
	VADDSD       X2, X7, X7

pdone:
	VMOVSD       X7, p+32(FP)
	VZEROUPPER
	RET

// zeroNegZero is [+0, −0] per sample: the swapped sample times it is
// [xi·0, xr·(−0)], and xr·(−0) is −(xr·0) exactly.
DATA zeroNegZero<>+0(SB)/8, $0x0000000000000000
DATA zeroNegZero<>+8(SB)/8, $0x8000000000000000
DATA zeroNegZero<>+16(SB)/8, $0x0000000000000000
DATA zeroNegZero<>+24(SB)/8, $0x8000000000000000
GLOBL zeroNegZero<>(SB), RODATA|NOPTR, $32

// DIV scales sample register v to [(xr + xi·0)·inv, (xi − xr·0)·inv]
// and ORs into Y11 an all-ones lane pair wherever both parts came out
// NaN. xi − xr·0 is computed as xi + xr·(−0): IEEE subtraction is the
// addition of the negated operand, and xr·(−0) is that negation. Y12
// holds zeroNegZero, Y13 the broadcast inv.
#define DIV(v, t, m) \
	VPERMILPD $5, v, t; \
	VMULPD    Y12, t, t; \
	VADDPD    t, v, v; \
	VMULPD    Y13, v, v; \
	VCMPPD    $3, v, v, m; \
	VPERMILPD $5, m, t; \
	VANDPD    t, m, m; \
	VORPD     m, Y11, Y11

// func divScale(dst, x *complex128, n int, inv, gr, gi float64) (ok bool)
//
// dst[i] = complex((xr + xi·0)·inv, (xi − xr·0)·inv) · g for i < n,
// every operation rounded once in that order: the runtime's Smith
// division by complex(1/inv, 0) (ratio +0, denominator 1/inv) when
// dividing by 1/inv and multiplying by inv agree, then the complex
// product. ok is false when some sample's two quotient parts were both
// NaN, where the runtime takes its fallback and the caller must redo
// the samples in Go. dst is x or does not overlap it.
TEXT ·divScale(SB), NOSPLIT, $0-49
	MOVQ         dst+0(FP), DI
	MOVQ         x+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSD inv+24(FP), Y13
	VBROADCASTSD gr+32(FP), Y14
	VBROADCASTSD gi+40(FP), Y15
	VMOVUPD      zeroNegZero<>(SB), Y12
	VXORPD       Y11, Y11, Y11
	CMPQ         CX, $4
	JB           dpair

dquad:
	VMOVUPD (SI), Y0
	VMOVUPD 32(SI), Y1
	DIV(Y0, Y8, Y2)
	DIV(Y1, Y9, Y3)
	CMUL(Y0, Y8)
	CMUL(Y1, Y9)
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	SUBQ    $4, CX
	CMPQ    CX, $4
	JAE     dquad

dpair:
	CMPQ    CX, $2
	JB      done1
	VMOVUPD (SI), Y0
	DIV(Y0, Y8, Y2)
	CMUL(Y0, Y8)
	VMOVUPD Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $2, CX

done1:
	TESTQ     CX, CX
	JZ        ddone
	VMOVUPD   (SI), X0
	VPERMILPD $1, X0, X8
	VMULPD    X12, X8, X8
	VADDPD    X8, X0, X0
	VMULPD    X13, X0, X0
	VCMPPD    $3, X0, X0, X2
	VPERMILPD $1, X2, X8
	VANDPD    X8, X2, X2      // VEX.128 clears the upper lanes of Y2
	VORPD     Y2, Y11, Y11
	CMUL1(X0, X8)
	VMOVUPD   X0, (DI)

ddone:
	VMOVMSKPD Y11, AX
	TESTL     AX, AX
	SETEQ     ok+48(FP)
	VZEROUPPER
	RET

// VCMUL multiplies sample register v by the per-sample rotor register
// r: v = [xr·rr − xi·ri, xi·rr + xr·ri], Go's x·r with each product
// and each sum rounded once. VMOVDDUP and VPERMILPD $15 spread each
// rotor's real and imaginary parts over its two lanes; t and u are
// scratch.
#define VCMUL(v, r, t, u) \
	VMOVDDUP  r, t; \
	VPERMILPD $15, r, u; \
	VMULPD    v, t, t; \
	VPERMILPD $5, v, v; \
	VMULPD    u, v, v; \
	VADDSUBPD v, t, v

#define VCMUL1(v, r, t, u) \
	VMOVDDUP  r, t; \
	VPERMILPD $3, r, u; \
	VMULPD    v, t, t; \
	VPERMILPD $1, v, v; \
	VMULPD    u, v, v; \
	VADDSUBPD v, t, v

// func rotate(dst, x *complex128, n int, runs, tab *complex128)
//
// dst[i] = x[i]·(runs[i/64]·tab[i%64]) for i < n. Each run of 64
// samples broadcasts its base phasor into Y14/Y15 and forms the rotors
// r = tab[k]·base with CMUL (the complex product of base·tab[k] in the
// other operand order, which IEEE makes the same bits), then the
// samples' products with VCMUL. Only the last run can be short; it ends
// in the pair and single passes. dst is x or does not overlap it.
//
// Register map: DI dst, SI x, CX samples left, BX runs, DX tab, R8 the
// run's tab cursor, R9 the run's samples left; Y0/Y1 rotors, Y2/Y3
// samples, Y8–Y11 scratch.
TEXT ·rotate(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ runs+24(FP), BX
	MOVQ tab+32(FP), DX

rrun:
	TESTQ        CX, CX
	JZ           rdone
	VBROADCASTSD (BX), Y14
	VBROADCASTSD 8(BX), Y15
	ADDQ         $16, BX
	MOVQ         DX, R8
	MOVQ         $64, R9
	CMPQ         CX, R9
	CMOVQLT      CX, R9
	SUBQ         R9, CX
	CMPQ         R9, $4
	JB           rpair

rquad:
	VMOVUPD (R8), Y0
	VMOVUPD 32(R8), Y1
	CMUL(Y0, Y8)
	CMUL(Y1, Y9)
	VMOVUPD (SI), Y2
	VMOVUPD 32(SI), Y3
	VCMUL(Y2, Y0, Y8, Y10)
	VCMUL(Y3, Y1, Y9, Y11)
	VMOVUPD Y2, (DI)
	VMOVUPD Y3, 32(DI)
	ADDQ    $64, R8
	ADDQ    $64, SI
	ADDQ    $64, DI
	SUBQ    $4, R9
	CMPQ    R9, $4
	JAE     rquad

rpair:
	CMPQ    R9, $2
	JB      rone
	VMOVUPD (R8), Y0
	CMUL(Y0, Y8)
	VMOVUPD (SI), Y2
	VCMUL(Y2, Y0, Y8, Y10)
	VMOVUPD Y2, (DI)
	ADDQ    $32, R8
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $2, R9

rone:
	TESTQ   R9, R9
	JZ      rrun
	VMOVUPD (R8), X0
	CMUL1(X0, X8)
	VMOVUPD (SI), X2
	VCMUL1(X2, X0, X8, X10)
	VMOVUPD X2, (DI)
	ADDQ    $16, SI
	ADDQ    $16, DI
	JMP     rrun

rdone:
	VZEROUPPER
	RET

// func mul(dst, x, y *complex128, n int)
//
// dst[i] = x[i]·y[i] for i < n: each pair of factors as VCMUL, the
// sample x and the per-sample factor y in the rotor's place. Passes
// take four samples, then one pair, then one sample in an xmm. dst is x
// or does not overlap it; y does not overlap dst.
//
// Register map: DI dst, SI x, DX y, CX samples left; Y0/Y1 factors,
// Y2/Y3 samples, Y8–Y11 scratch.
TEXT ·mul(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DX
	MOVQ n+24(FP), CX
	CMPQ CX, $4
	JB   mpair

mquad:
	VMOVUPD (DX), Y0
	VMOVUPD 32(DX), Y1
	VMOVUPD (SI), Y2
	VMOVUPD 32(SI), Y3
	VCMUL(Y2, Y0, Y8, Y10)
	VCMUL(Y3, Y1, Y9, Y11)
	VMOVUPD Y2, (DI)
	VMOVUPD Y3, 32(DI)
	ADDQ    $64, DX
	ADDQ    $64, SI
	ADDQ    $64, DI
	SUBQ    $4, CX
	CMPQ    CX, $4
	JAE     mquad

mpair:
	CMPQ    CX, $2
	JB      mone
	VMOVUPD (DX), Y0
	VMOVUPD (SI), Y2
	VCMUL(Y2, Y0, Y8, Y10)
	VMOVUPD Y2, (DI)
	ADDQ    $32, DX
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $2, CX

mone:
	TESTQ   CX, CX
	JZ      mdone
	VMOVUPD (DX), X0
	VMOVUPD (SI), X2
	VCMUL1(X2, X0, X8, X10)
	VMOVUPD X2, (DI)

mdone:
	VZEROUPPER
	RET
