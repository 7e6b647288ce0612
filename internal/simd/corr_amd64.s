//go:build !noasm

#include "textflag.h"

// func preambleCorr(acc *complex128, npos int, x *complex128, tpl *complex128, m int)
//
// Sliding correlation of one template over npos consecutive positions,
// bit-identical to the Go loop in zigbee's correlate:
//
//   acc[p] = Σ_{j<m} x[p+j] · tpl[j]
//
// each sum taken from +0 in j ascending order. Lanes run across
// positions: one ymm holds the (re, im) accumulators of two adjacent
// positions, whose samples at offset j are adjacent in x, so one
// 32-byte load feeds both. The complex multiply lowers Go's
// `xr*cr - xi*ci, xr*ci + xi*cr` with one VADDSUBPD, as the FFT
// kernel's butterflies do:
//
//   t1 = [xr·cr, xr·ci]          VMOVDDUP (dup re, a pure load), VMULPD
//   t2 = [xi·ci, xi·cr]          VPERMILPD $15 (dup im), VMULPD by swapped c
//   prod = [t1−t2, t1+t2]        VADDSUBPD
//
// One pass covers 8 positions (npos must be a multiple of 8).
//
// Register map: DI acc cursor, CX positions left, SI x base of the
// pass, DX tpl, R8 m, R10 16·j (byte offset of sample j in x and tpl),
// R14 samples left; Y0–Y3 accumulators, Y8 c, Y9 swapped c, Y11/Y12
// scratch.

#define CORR(off, acc) \
	VMOVDDUP  off(SI)(R10*1), Y11; \
	VPERMILPD $15, off(SI)(R10*1), Y12; \
	VMULPD    Y8, Y11, Y11; \
	VMULPD    Y9, Y12, Y12; \
	VADDSUBPD Y12, Y11, Y11; \
	VADDPD    Y11, acc, acc

TEXT ·preambleCorr(SB), NOSPLIT, $0-40
	MOVQ acc+0(FP), DI
	MOVQ npos+8(FP), CX
	MOVQ x+16(FP), SI
	MOVQ tpl+24(FP), DX
	MOVQ m+32(FP), R8
	TESTQ CX, CX
	JZ    done

pass:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ   R10, R10
	MOVQ   R8, R14

sample:
	VBROADCASTF128 (DX)(R10*1), Y8
	VPERMILPD $5, Y8, Y9
	CORR(0, Y0)
	CORR(32, Y1)
	CORR(64, Y2)
	CORR(96, Y3)
	ADDQ $16, R10
	DECQ R14
	JNZ  sample

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, SI
	SUBQ    $8, CX
	JNZ     pass

done:
	VZEROUPPER
	RET
