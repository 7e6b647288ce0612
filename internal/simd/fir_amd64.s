//go:build !noasm

#include "textflag.h"

// func firReal(dst *complex128, n int, x *complex128, h *float64, m int) (finite bool)
//
// Real-tap FIR over complex samples, bit-identical to the scalar
// accumulation in signal.ConvolveInto whenever it reports finite:
//
//   dst[q] = Σ_{t=0}^{m-1} x[q+t] · complex(h[m-1-t], 0)
//
// summed from +0 in t (= input index) ascending order. The Go complex
// multiply by a zero-imaginary tap is re = xr·h − xi·0,
// im = xi·h + xr·0; this kernel computes only x·h (one VMULPD scales
// both halves) and leaves the ·0 cross terms out. On a finite sample
// xi·0 and xr·0 are ±0, so each dropped term changes a product only in
// the sign of a zero. Under round-to-nearest a sum that starts at +0
// never becomes −0 (only −0 + −0 is −0), so adding a zero of either
// sign leaves it unchanged, and every output equals the Go loop's.
// Only an Inf or NaN sample makes the cross terms matter, and such a
// sample gives every output that reads it an Inf or NaN term (Inf·h is
// ±Inf or NaN), so those outputs are non-finite. The kernel therefore
// returns whether every output is finite; when it returns false the
// caller recomputes the block with the Go loop.
//
// One pass computes 8 outputs (n must be a multiple of 8): four ymm
// accumulators of two complex128 each; per tap the broadcast h
// (VBROADCASTSD) multiplies a 4×32-byte window of x that slides one
// sample per tap. After each pass acc − acc (+0 for a finite lane, NaN
// otherwise) is added into Y15, so Y15 ends unordered exactly when some
// output is non-finite.
//
// Register map: DI dst cursor, CX outputs left, SI window base,
// DX &h[m-1], R8 m, R9 window cursor, R10 tap cursor (descending),
// R11 taps left; Y0–Y3 accumulators, Y4 broadcast tap, Y5 scratch,
// Y15 finiteness probe.

#define FIR_MAC(off, acc) \
	VMULPD off(R9), Y4, Y5; \
	VADDPD Y5, acc, acc

#define FIR_PROBE(acc) \
	VSUBPD acc, acc, Y5; \
	VADDPD Y5, Y15, Y15

TEXT ·firReal(SB), NOSPLIT, $0-41
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
	FIR_PROBE(Y0)
	FIR_PROBE(Y1)
	FIR_PROBE(Y2)
	FIR_PROBE(Y3)
	ADDQ    $128, DI
	ADDQ    $128, SI
	SUBQ    $8, CX
	JNZ     block

done:
	VCMPPD    $3, Y15, Y15, Y15  // unordered: all ones in a lane that saw a non-finite output
	VMOVMSKPD Y15, AX
	TESTL     AX, AX
	SETEQ     finite+40(FP)
	VZEROUPPER
	RET
