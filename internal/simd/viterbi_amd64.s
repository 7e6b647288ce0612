//go:build !noasm

#include "textflag.h"

// func viterbiACS(metric *[64]int16, signs *ViterbiSigns, q *int16, tb *uint64, steps, renormAt int) (ok bool)
//
// AVX2 add-compare-select over the 64-state butterfly trellis in int16
// lanes, bit-identical to wifi's Go loop (viterbiACSChunkGo, with
// renormMetrics before every step whose index is renormAt mod 64) on
// every input it accepts; see ViterbiACS for the range it accepts and
// why no lane can overflow inside it.
//
// The 64 metrics stay in four registers across steps, split by the
// butterfly they feed: butterfly k reads states 2k and 2k+1 and writes
// states k and k+32. E0/O0 hold the even/odd states of butterflies
// 0..7 (low lane) and 16..23 (high lane), E1/O1 those of 8..15 and
// 24..31. One step is then vertical: a0 = E+g, a1 = O−g, b0 = E−g,
// b1 = O+g, survivors max(a0, a1) and max(b0, b1), selectors a1 > a0
// and b1 > b0 (strict: a tie keeps the even predecessor). Packing the
// two registers' selector words to bytes puts them in butterfly order
// 0..31, so one VPMOVMSKB each gives the a-side (states 0..31) and
// b-side (32..63) halves of tb[t]. The survivors are states k and k+32
// in the same layout; packing their low (even) and high (odd) words
// and one 128-bit lane exchange rebuild E0, E1, O0 and O1.
//
// Gains: the symbol pair is broadcast as dwords D = (qa, qb) and
// Dsw = (qb, qa); sign tables S1 and S2 (see NewViterbiSigns) give
// g = D·sign(S1) + Dsw·sign(S2) per butterfly.
//
// Register map (inside the step loop):
//   Y0 E0   Y1 O0   Y2 E1   Y3 O1   Y4 0x0000FFFF dword mask
//   Y5..Y15 scratch
//   SI signs   DX q cursor   BX tb cursor   CX steps left
//   R8 steps until the next renormalisation   DI caller's metric array
TEXT ·viterbiACS(SB), NOSPLIT, $0-49
	MOVQ metric+0(FP), DI
	MOVQ signs+8(FP), SI
	MOVQ q+16(FP), DX
	MOVQ tb+24(FP), BX
	MOVQ steps+32(FP), CX
	MOVQ renormAt+40(FP), R8

	// Range check: every metric in [-4096, 4096] and every symbol in
	// [-63, 63], or decline with the outputs untouched.
	MOVL $4096, AX
	VMOVD AX, X4
	VPBROADCASTW X4, Y4           // +4096
	VPXOR Y5, Y5, Y5
	VPSUBW Y4, Y5, Y5             // -4096
	VMOVDQU (DI), Y0
	VMOVDQU 32(DI), Y1
	VMOVDQU 64(DI), Y2
	VMOVDQU 96(DI), Y3
	VPCMPGTW Y4, Y0, Y6           // m > 4096
	VPCMPGTW Y0, Y5, Y7           // -4096 > m
	VPOR Y7, Y6, Y6
	VPCMPGTW Y4, Y1, Y7
	VPOR Y7, Y6, Y6
	VPCMPGTW Y1, Y5, Y7
	VPOR Y7, Y6, Y6
	VPCMPGTW Y4, Y2, Y7
	VPOR Y7, Y6, Y6
	VPCMPGTW Y2, Y5, Y7
	VPOR Y7, Y6, Y6
	VPCMPGTW Y4, Y3, Y7
	VPOR Y7, Y6, Y6
	VPCMPGTW Y3, Y5, Y7
	VPOR Y7, Y6, Y6

	MOVL $63, AX
	VMOVD AX, X8
	VPBROADCASTW X8, Y8           // +63
	VPXOR Y9, Y9, Y9
	VPSUBW Y8, Y9, Y9             // -63
	MOVQ DX, R10
	LEAQ (CX)(CX*1), R11          // 2·steps symbols
	MOVQ R11, R12
	SHRQ $4, R12                  // whole 16-symbol blocks
	JZ   qtail
qblock:
	VMOVDQU (R10), Y10
	VPCMPGTW Y8, Y10, Y11         // q > 63
	VPOR Y11, Y6, Y6
	VPCMPGTW Y10, Y9, Y11         // -63 > q
	VPOR Y11, Y6, Y6
	ADDQ $32, R10
	DECQ R12
	JNZ  qblock
qtail:
	ANDQ $15, R11
	JZ   qdone
qscalar:
	MOVWQSX (R10), AX
	CMPQ AX, $63
	JGT  decline
	CMPQ AX, $-63
	JLT  decline
	ADDQ $2, R10
	DECQ R11
	JNZ  qscalar
qdone:
	VPTEST Y6, Y6
	JNZ  decline

	// Natural order → E/O layout: T0 = (m0..7, m32..39), T1 = (m8..15,
	// m40..47); the low (even) and high (odd) words of T0, T1 pack to
	// E0 and O0. E1, O1 come from m16..31, m48..63 the same way.
	VPCMPEQD Y4, Y4, Y4
	VPSRLD $16, Y4, Y4            // 0x0000FFFF per dword
	VPERM2I128 $0x20, Y2, Y0, Y5
	VPERM2I128 $0x31, Y2, Y0, Y6
	VPERM2I128 $0x20, Y3, Y1, Y7
	VPERM2I128 $0x31, Y3, Y1, Y8
	VPAND Y4, Y5, Y9
	VPAND Y4, Y6, Y10
	VPACKUSDW Y10, Y9, Y0         // E0
	VPSRLD $16, Y5, Y5
	VPSRLD $16, Y6, Y6
	VPACKUSDW Y6, Y5, Y1          // O0
	VPAND Y4, Y7, Y9
	VPAND Y4, Y8, Y10
	VPACKUSDW Y10, Y9, Y2         // E1
	VPSRLD $16, Y7, Y7
	VPSRLD $16, Y8, Y8
	VPACKUSDW Y8, Y7, Y3          // O1

step:
	TESTQ R8, R8
	JNZ  acs
	// Renormalise: subtract the largest metric from all 64.
	VPMAXSW Y2, Y0, Y5
	VPMAXSW Y3, Y1, Y6
	VPMAXSW Y6, Y5, Y5
	VEXTRACTI128 $1, Y5, X6
	VPMAXSW X6, X5, X5
	VPSHUFD $0x4E, X5, X6
	VPMAXSW X6, X5, X5
	VPSHUFD $0xB1, X5, X6
	VPMAXSW X6, X5, X5
	VPSRLD $16, X5, X6
	VPMAXSW X6, X5, X5
	VPBROADCASTW X5, Y5
	VPSUBW Y5, Y0, Y0
	VPSUBW Y5, Y1, Y1
	VPSUBW Y5, Y2, Y2
	VPSUBW Y5, Y3, Y3
	MOVQ $64, R8

acs:
	// Gains for butterflies in E0 (Y7) and E1 (Y5) lane order.
	VPBROADCASTD (DX), Y5         // (qa, qb)
	VPSRLD $16, Y5, Y6
	VPSLLD $16, Y5, Y7
	VPOR Y7, Y6, Y6               // (qb, qa)
	VPSIGNW (SI), Y5, Y7
	VPSIGNW 32(SI), Y6, Y8
	VPADDW Y8, Y7, Y7             // G0
	VPSIGNW 64(SI), Y5, Y5
	VPSIGNW 96(SI), Y6, Y6
	VPADDW Y6, Y5, Y5             // G1

	// Butterflies 0..7, 16..23.
	VPADDW Y7, Y0, Y8             // a0
	VPSUBW Y7, Y1, Y9             // a1
	VPSUBW Y7, Y0, Y10            // b0
	VPADDW Y7, Y1, Y11            // b1
	VPCMPGTW Y8, Y9, Y12          // a1 > a0
	VPMAXSW Y9, Y8, Y8            // A0: states k
	VPCMPGTW Y10, Y11, Y13        // b1 > b0
	VPMAXSW Y11, Y10, Y10         // B0: states k+32

	// Butterflies 8..15, 24..31.
	VPADDW Y5, Y2, Y9
	VPSUBW Y5, Y3, Y11
	VPSUBW Y5, Y2, Y0
	VPADDW Y5, Y3, Y1
	VPCMPGTW Y9, Y11, Y14
	VPMAXSW Y11, Y9, Y9           // A1
	VPCMPGTW Y0, Y1, Y15
	VPMAXSW Y1, Y0, Y0            // B1

	// Selector word: a-side bits 0..31, b-side bits 32..63.
	VPACKSSWB Y14, Y12, Y12
	VPACKSSWB Y15, Y13, Y13
	VPMOVMSKB Y12, AX
	VPMOVMSKB Y13, R9
	SHLQ $32, R9
	ORQ  R9, AX
	MOVQ AX, (BX)

	// Rebuild the layout: PAe = (next 0..14 even | 16..30 even), PBe =
	// (32..46 even | 48..62 even), PAo, PBo the odd states.
	VPAND Y4, Y8, Y1
	VPAND Y4, Y9, Y2
	VPACKUSDW Y2, Y1, Y1          // PAe
	VPSRLD $16, Y8, Y8
	VPSRLD $16, Y9, Y9
	VPACKUSDW Y9, Y8, Y8          // PAo
	VPAND Y4, Y10, Y2
	VPAND Y4, Y0, Y3
	VPACKUSDW Y3, Y2, Y2          // PBe
	VPSRLD $16, Y10, Y10
	VPSRLD $16, Y0, Y0
	VPACKUSDW Y0, Y10, Y10        // PBo
	VPERM2I128 $0x20, Y2, Y1, Y0  // E0
	VPERM2I128 $0x31, Y2, Y1, Y2  // E1
	VPERM2I128 $0x20, Y10, Y8, Y1 // O0
	VPERM2I128 $0x31, Y10, Y8, Y3 // O1

	DECQ R8
	ADDQ $4, DX
	ADDQ $8, BX
	DECQ CX
	JNZ  step

	// E/O layout → natural order.
	VPUNPCKLWD Y1, Y0, Y5         // (m0..7 | m32..39)
	VPUNPCKHWD Y1, Y0, Y6         // (m8..15 | m40..47)
	VPUNPCKLWD Y3, Y2, Y7         // (m16..23 | m48..55)
	VPUNPCKHWD Y3, Y2, Y8         // (m24..31 | m56..63)
	VPERM2I128 $0x20, Y6, Y5, Y0
	VPERM2I128 $0x31, Y6, Y5, Y2
	VPERM2I128 $0x20, Y8, Y7, Y1
	VPERM2I128 $0x31, Y8, Y7, Y3
	VMOVDQU Y0, (DI)
	VMOVDQU Y1, 32(DI)
	VMOVDQU Y2, 64(DI)
	VMOVDQU Y3, 96(DI)
	VZEROUPPER
	MOVB $1, ok+48(FP)
	RET

decline:
	VZEROUPPER
	MOVB $0, ok+48(FP)
	RET
