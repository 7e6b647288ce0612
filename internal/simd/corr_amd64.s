//go:build !noasm

#include "textflag.h"

// func preambleCorr(acc *complex128, stride int, pow *float64, npos int, x *complex128, tpl *complex128, seg int, segs int)
//
// Segmented sliding correlation, bit-identical to the scalar scan in
// zigbee.(*Receiver).detect. For scan position p < npos and segment
// s < segs:
//
//   acc[s·stride + p] = Σ_{j<seg} x[p+s·seg+j] · tpl[s·seg+j]
//   pow[p]            = Σ_{k<seg·segs} xr[p+k]² + xi[p+k]²
//
// each sum taken from +0 in j (k) ascending order, pow running across
// segment boundaries. Lanes run across positions: one ymm holds the
// (re, im) accumulators of two adjacent positions, whose samples at
// offset j are adjacent in x, so one unaligned load feeds both. The
// complex multiply is fftPass's lowering of Go's
// `xr*cr - xi*ci, xr*ci + xi*cr`:
//
//   t1 = [xr·cr, xr·ci]          VPERMILPD $0 (dup re), VMULPD
//   t2 = [xi·ci, xi·cr]          VPERMILPD $15 (dup im), VMULPD by swapped c
//   prod = [t1−t2, t1+t2]        VADDSUBPD
//
// and the power term is VMULPD x·x = [xr², xi²] followed by VHADDPD,
// which adds each complex's two squares in source order (xr² + xi²).
// VHADDPD of two position pairs interleaves them ([p0, p2, p1, p3]);
// VPERMPD $0xD8 restores position order before the store. One pass
// covers 8 positions (npos must be a multiple of 8).
//
// Register map: DI acc base of the pass, BX pow cursor, CX positions
// left, SI x base of the pass, DX tpl, R8 seg, R9 segs, R10 x cursor,
// R11 tpl cursor, R12 acc cursor, R13 segments left, R14 samples left,
// R15 stride in bytes; Y0–Y3 correlation accumulators, Y4/Y5 power
// accumulators, Y8 c, Y9 swapped c, Y10–Y14 scratch.

#define CORR(off, xv, acc) \
	VMOVUPD   off(R10), xv; \
	VPERMILPD $0, xv, Y11; \
	VPERMILPD $15, xv, Y12; \
	VMULPD    Y8, Y11, Y11; \
	VMULPD    Y9, Y12, Y12; \
	VADDSUBPD Y12, Y11, Y11; \
	VADDPD    Y11, acc, acc; \
	VMULPD    xv, xv, xv

TEXT ·preambleCorr(SB), NOSPLIT, $0-64
	MOVQ acc+0(FP), DI
	MOVQ stride+8(FP), R15
	SHLQ $4, R15
	MOVQ pow+16(FP), BX
	MOVQ npos+24(FP), CX
	MOVQ x+32(FP), SI
	MOVQ tpl+40(FP), DX
	MOVQ seg+48(FP), R8
	MOVQ segs+56(FP), R9
	TESTQ CX, CX
	JZ    done

pass:
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	MOVQ   SI, R10
	MOVQ   DX, R11
	MOVQ   DI, R12
	MOVQ   R9, R13

segment:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   R8, R14

sample:
	VBROADCASTF128 (R11), Y8
	VPERMILPD $5, Y8, Y9
	CORR(0, Y10, Y0)
	CORR(32, Y13, Y1)
	VHADDPD Y13, Y10, Y14
	VADDPD  Y14, Y4, Y4
	CORR(64, Y10, Y2)
	CORR(96, Y13, Y3)
	VHADDPD Y13, Y10, Y14
	VADDPD  Y14, Y5, Y5
	ADDQ $16, R10
	ADDQ $16, R11
	DECQ R14
	JNZ  sample

	VMOVUPD Y0, (R12)
	VMOVUPD Y1, 32(R12)
	VMOVUPD Y2, 64(R12)
	VMOVUPD Y3, 96(R12)
	ADDQ    R15, R12
	DECQ    R13
	JNZ     segment

	VPERMPD $0xD8, Y4, Y4
	VPERMPD $0xD8, Y5, Y5
	VMOVUPD Y4, (BX)
	VMOVUPD Y5, 32(BX)
	ADDQ    $64, BX
	ADDQ    $128, DI
	ADDQ    $128, SI
	SUBQ    $8, CX
	JNZ     pass

done:
	VZEROUPPER
	RET
