//go:build !noasm

#include "textflag.h"

// func preambleCorr(acc *complex128, stride int, pow *float64, npos int, x *complex128, e *float64, tpl *complex128, seg int, segs int)
//
// Segmented sliding correlation, bit-identical to the scalar scan in
// zigbee.(*Receiver).detect. For scan position p < npos and segment
// s < segs:
//
//   acc[s·stride + p] = Σ_{j<seg} x[p+s·seg+j] · tpl[s·seg+j]
//   pow[p]            = Σ_{k<seg·segs} e[p+k]
//
// each sum taken from +0 in j (k) ascending order, pow running across
// segment boundaries. e is the caller's per-sample energy,
// e[i] = xr[i]² + xi[i]², computed once per sample rather than once per
// scan position whose window covers it; adding it here is the same
// rounding sequence as squaring in the loop. Lanes run across
// positions: one ymm holds the (re, im) accumulators of two adjacent
// positions, whose samples at offset j are adjacent in x, so one
// 32-byte load feeds both. The complex multiply is fftPass's lowering
// of Go's `xr*cr - xi*ci, xr*ci + xi*cr`:
//
//   t1 = [xr·cr, xr·ci]          VMOVDDUP (dup re, a pure load), VMULPD
//   t2 = [xi·ci, xi·cr]          VPERMILPD $15 (dup im), VMULPD by swapped c
//   prod = [t1−t2, t1+t2]        VADDSUBPD
//
// The energy lanes need no shuffle: pow of 4 adjacent positions is one
// unaligned load of e per sample. One pass covers 8 positions (npos
// must be a multiple of 8).
//
// Register map: DI acc base of the pass, BX pow cursor, CX positions
// left, SI x base of the pass, AX e base of the pass, DX tpl, R8 seg,
// R9 segs, R10 8·k (k = sample offset within the template; x and tpl
// are addressed at 2·R10, e at R10), R12 acc cursor, R13 segments left,
// R14 samples left, R15 stride in bytes; Y0–Y3 correlation
// accumulators, Y4/Y5 power accumulators, Y8 c, Y9 swapped c, Y11/Y12
// scratch.

#define CORR(off, acc) \
	VMOVDDUP  off(SI)(R10*2), Y11; \
	VPERMILPD $15, off(SI)(R10*2), Y12; \
	VMULPD    Y8, Y11, Y11; \
	VMULPD    Y9, Y12, Y12; \
	VADDSUBPD Y12, Y11, Y11; \
	VADDPD    Y11, acc, acc

TEXT ·preambleCorr(SB), NOSPLIT, $0-72
	MOVQ acc+0(FP), DI
	MOVQ stride+8(FP), R15
	SHLQ $4, R15
	MOVQ pow+16(FP), BX
	MOVQ npos+24(FP), CX
	MOVQ x+32(FP), SI
	MOVQ e+40(FP), AX
	MOVQ tpl+48(FP), DX
	MOVQ seg+56(FP), R8
	MOVQ segs+64(FP), R9
	TESTQ CX, CX
	JZ    done

pass:
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	XORQ   R10, R10
	MOVQ   DI, R12
	MOVQ   R9, R13

segment:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   R8, R14

sample:
	VBROADCASTF128 (DX)(R10*2), Y8
	VPERMILPD $5, Y8, Y9
	CORR(0, Y0)
	CORR(32, Y1)
	CORR(64, Y2)
	CORR(96, Y3)
	VADDPD (AX)(R10*1), Y4, Y4
	VADDPD 32(AX)(R10*1), Y5, Y5
	ADDQ $8, R10
	DECQ R14
	JNZ  sample

	VMOVUPD Y0, (R12)
	VMOVUPD Y1, 32(R12)
	VMOVUPD Y2, 64(R12)
	VMOVUPD Y3, 96(R12)
	ADDQ    R15, R12
	DECQ    R13
	JNZ     segment

	VMOVUPD Y4, (BX)
	VMOVUPD Y5, 32(BX)
	ADDQ    $64, BX
	ADDQ    $128, DI
	ADDQ    $128, SI
	ADDQ    $64, AX
	SUBQ    $8, CX
	JNZ     pass

done:
	VZEROUPPER
	RET
