//go:build !noasm

#include "textflag.h"

// func firReal(dst *complex128, n int, x *complex128, h *float64, m int)
//
// Real-tap FIR over complex samples, bit-identical to the scalar
// accumulation in signal.ConvolveInto:
//
//   dst[q] = Σ_{t=0}^{m-1} x[q+t] · complex(h[m-1-t], 0)
//
// summed from +0 in t (= input index) ascending order. Each product is
// the compiled Go complex multiply with a zero imaginary tap, cross
// terms included:
//
//   re = xr·h − xi·0             (VMULPD, VPERMILPD + VMULPD by +0,
//   im = xi·h + xr·0              VADDSUBPD)
//
// The ·0 terms are what turn an Inf sample into NaN and make
// −0 − (−0) = +0 exactly where the Go loop does, so they cannot be
// dropped. One pass computes 8 outputs (n must be a multiple of 8):
// four ymm accumulators of two complex128 each; per tap the broadcast
// h (VBROADCASTSD) multiplies a 4×32-byte window of x that slides one
// sample per tap.
//
// Register map: DI dst cursor, CX outputs left, SI window base,
// DX &h[m-1], R8 m, R9 window cursor, R10 tap cursor (descending),
// R11 taps left; Y0–Y3 accumulators, Y4 broadcast tap, Y5–Y7 scratch,
// Y15 +0.

#define FIR_MAC(off, acc) \
	VMOVUPD   off(R9), Y5; \
	VMULPD    Y4, Y5, Y6; \
	VPERMILPD $5, Y5, Y7; \
	VMULPD    Y15, Y7, Y7; \
	VADDSUBPD Y7, Y6, Y6; \
	VADDPD    Y6, acc, acc

TEXT ·firReal(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ n+8(FP), CX
	MOVQ x+16(FP), SI
	MOVQ h+24(FP), DX
	MOVQ m+32(FP), R8
	LEAQ -8(DX)(R8*8), DX        // &h[m-1]
	VXORPD Y15, Y15, Y15
	TESTQ CX, CX
	JZ    done

block:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   SI, R9
	MOVQ   DX, R10
	MOVQ   R8, R11

tap:
	VBROADCASTSD (R10), Y4
	FIR_MAC(0, Y0)
	FIR_MAC(32, Y1)
	FIR_MAC(64, Y2)
	FIR_MAC(96, Y3)
	ADDQ $16, R9
	SUBQ $8, R10
	DECQ R11
	JNZ  tap

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, SI
	SUBQ    $8, CX
	JNZ     block

done:
	VZEROUPPER
	RET
