//go:build !noasm

#include "textflag.h"

// func equalise(dst, x *complex128, n int, bins *int32, coef *EqualiseCoef, pairs int, inv float64) (status int)
//
// Two outputs per pass: gather x[bins[2p]], x[bins[2p+1]], scale them
// by complex(inv, 0) with all four real products (v), then
// q = (v·A + swap(v)·B) / D and dst = M ? v : q, with A, B, D, M the
// pair's coefficient rows (see EqualiseCoef.Set). Y11 collects, over
// the outputs whose mask is clear, the lanes where both quotient parts
// are NaN. status is 0, 1 when there is any such lane, or 2 when a bin
// index is outside [0, n): the pass stops before reading it.
TEXT ·equalise(SB), NOSPLIT, $0-64
	MOVQ         dst+0(FP), DI
	MOVQ         x+8(FP), SI
	MOVQ         n+16(FP), R10
	MOVQ         bins+24(FP), DX
	MOVQ         coef+32(FP), BX
	MOVQ         pairs+40(FP), CX
	VBROADCASTSD inv+48(FP), Y14
	VXORPD       Y15, Y15, Y15     // the gain's imaginary part, +0
	VXORPD       Y11, Y11, Y11

pair:
	MOVLQSX     (DX), AX
	MOVLQSX     4(DX), R9
	CMPQ        AX, R10
	JAE         oob
	CMPQ        R9, R10
	JAE         oob
	SHLQ        $4, AX
	SHLQ        $4, R9
	VMOVUPD     (SI)(AX*1), X0
	VINSERTF128 $1, (SI)(R9*1), Y0, Y0
	VPERMILPD   $5, Y0, Y1
	VMULPD      Y14, Y0, Y0
	VMULPD      Y15, Y1, Y1
	VADDSUBPD   Y1, Y0, Y0         // v = (xr·inv − xi·0, xi·inv + xr·0)
	VPERMILPD   $5, Y0, Y1         // swap(v)
	VMULPD      (BX), Y0, Y2       // v·A
	VMULPD      32(BX), Y1, Y1     // swap(v)·B
	VADDPD      Y1, Y2, Y2
	VDIVPD      64(BX), Y2, Y2     // q
	VMOVUPD     96(BX), Y3         // M
	VCMPPD      $3, Y2, Y2, Y4     // NaN parts of q
	VPERMILPD   $5, Y4, Y5
	VANDPD      Y5, Y4, Y4         // both parts NaN
	VANDNPD     Y4, Y3, Y4         // ... where the mask is clear
	VORPD       Y4, Y11, Y11
	VBLENDVPD   Y3, Y0, Y2, Y2     // M ? v : q
	VMOVUPD     Y2, (DI)
	ADDQ        $8, DX
	ADDQ        $128, BX
	ADDQ        $32, DI
	DECQ        CX
	JNZ         pair

	VMOVMSKPD Y11, AX
	TESTL     AX, AX
	SETNE     AX
	MOVBQZX   AX, AX
	MOVQ      AX, status+56(FP)
	VZEROUPPER
	RET

oob:
	MOVQ $2, status+56(FP)
	VZEROUPPER
	RET
