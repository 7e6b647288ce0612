//go:build !noasm

#include "textflag.h"

// func fft(x *complex128, n int, tw *float64, cols *uint32)
//
// A whole radix-2 DIT transform of x in place, bit-identical to the Go
// loops in signal.(*Plan).transform: the bit-reversal permutation and
// every stage, three stages per pass over memory with the points of a
// block held in ymm registers between them, so 64 points take two
// passes and 512 three. Vectorization is across independent
// butterflies only; each butterfly performs exactly the scalar
// operation sequence (BFLY below):
//
//   t1 = [br·wr, bi·wr]          VMULPD by the duplicated real parts
//   t2 = [bi·wi, br·wi]          VPERMILPD $5 (swap), VMULPD by the
//                                duplicated imaginary parts
//   p  = [t1−t2, t1+t2]          VADDSUBPD: br·wr − bi·wi, bi·wr + br·wi
//   hi' = a − p                  VSUBPD
//   lo' = a + p                  VADDPD
//
// with no reassociation and no FMA. Each product is the one Go rounds,
// and the imaginary sum adds the same two rounded products (IEEE
// addition commutes exactly), so results match bit for bit; the one
// exception is which NaN's payload survives, as for every kernel here.
// Unit twiddles are multiplied like any other.
//
// The twiddle table is simd.FFTTwiddles' layout: a "pair" is 64 bytes,
// the two lanes' real parts duplicated (WR) then their imaginary parts
// (WI), read in the order BLOCK8/4/2 consume them.
//
// A block is 2^k registers Y0..Y(2^k−1) whose lanes hold points of the
// same stage position, so every butterfly of stages s+1..s+k pairs
// whole registers: (m, m+1), then (m, m+2), then (m, m+4).
//
// The first pass (stages 1–3) reads x in bit-reversed order, so it
// cannot write in place: it writes a scratch copy in the frame, each
// later pass reads the scratch and writes it back, and the last one
// writes x. With x seen as 16 rows of n/16 points, logical point
// 16g+t is x[rev4(t)·n/16 + rev(g)] (rev over log2(n)−4 bits). A
// first-pass block loads rows 2·rev3(j) + h, j = 0..7, of two adjacent
// columns, one 32-byte load per register: its lanes are the groups of
// those columns, g and g + n/32, both at points 8h+j. cols gives each
// block's load and store offsets (simd.fftCols). The lanes are stored
// as 16-byte halves n/2 points apart, so the scratch holds the points
// in logical order. At n = 16 the two "columns" are rows h = 0 and 1 of
// the only one, and the same offsets hold.
//
// Later passes (stages s+1..s+k, k ≤ 3, stride d = 2^s ≥ 8 points):
// lanes hold points r and r+1, so the registers of a block are the
// points r + m·d of one chunk of 2^k·d points. The inner loop walks
// even r; every chunk reads the pass's twiddles from the same table.
//
// Register map: DI x, CX 16·n, SI twiddle cursor (the current pass's
// table), R12 scratch, R11 destination of the pass (first pass: blocks
// left), R10 stride in bytes, R15 3·R10, R8 chunk, R9 16·r (first
// pass: the second lane's store offset), AX twiddle cursor within the
// chunk, BX/DX source block pointers (first pass: DX the cols cursor),
// R13/R14 destination block pointers; Y0–Y7 points, Y8/Y9 scratch.

#define BFLY(lo, hi, wr, wi) \
	VPERMILPD $5, hi, Y8; \
	VMULPD    wr, hi, Y9; \
	VMULPD    wi, Y8, Y8; \
	VADDSUBPD Y8, Y9, Y9; \
	VSUBPD    Y9, lo, hi; \
	VADDPD    Y9, lo, lo

// BLOCK2, BLOCK4 and BLOCK8 run 1, 2 and 3 stages over Y0..Y1, Y0..Y3
// and Y0..Y7 with the 1, 3 and 7 twiddle pairs at t.
#define BLOCK2(t) \
	BFLY(Y0, Y1, 0(t), 32(t))

#define BLOCK4(t) \
	BFLY(Y0, Y1, 0(t), 32(t)); \
	BFLY(Y2, Y3, 0(t), 32(t)); \
	BFLY(Y0, Y2, 64(t), 96(t)); \
	BFLY(Y1, Y3, 128(t), 160(t))

#define BLOCK8(t) \
	BFLY(Y0, Y1, 0(t), 32(t)); \
	BFLY(Y2, Y3, 0(t), 32(t)); \
	BFLY(Y4, Y5, 0(t), 32(t)); \
	BFLY(Y6, Y7, 0(t), 32(t)); \
	BFLY(Y0, Y2, 64(t), 96(t)); \
	BFLY(Y4, Y6, 64(t), 96(t)); \
	BFLY(Y1, Y3, 128(t), 160(t)); \
	BFLY(Y5, Y7, 128(t), 160(t)); \
	BFLY(Y0, Y4, 192(t), 224(t)); \
	BFLY(Y1, Y5, 256(t), 288(t)); \
	BFLY(Y2, Y6, 320(t), 352(t)); \
	BFLY(Y3, Y7, 384(t), 416(t))

// SPLIT stores Y_j's lanes (x, y) to two logical points n/2 apart.
#define SPLIT(x, y, lo, hi) \
	VMOVUPD      x, lo; \
	VEXTRACTF128 $1, y, hi

// The frame is the scratch: 16·1024 bytes (simd.FFTMaxSize points) plus
// 32 for alignment.
TEXT ·fft(SB), 0, $16416-32
	MOVQ x+0(FP), DI
	MOVQ n+8(FP), CX
	MOVQ tw+16(FP), SI
	MOVQ cols+24(FP), DX
	LEAQ 31(SP), R12
	ANDQ $~31, R12

	// First pass. R10 is 2·(row stride) = 2·n bytes, R15 3·R10.
	MOVQ CX, R10
	SHLQ $1, R10
	LEAQ (R10)(R10*2), R15
	MOVQ CX, R11
	SHRQ $4, R11                 // blocks
	SHLQ $4, CX                  // 16·n
	MOVQ CX, R9
	SHRQ $1, R9                  // 8·n: the second lane's store offset

first:
	MOVL    (DX), BX
	ADDQ    DI, BX               // rows 0, 2, 4, 6 (+h)
	LEAQ    (BX)(R10*4), R13     // rows 8, 10, 12, 14 (+h)
	MOVL    4(DX), AX
	ADDQ    R12, AX              // lane 0's points
	LEAQ    (AX)(R9*1), R14      // lane 1's points
	VMOVUPD (BX), Y0             // rows 2·rev3(j) + h
	VMOVUPD (R13), Y1
	VMOVUPD (BX)(R10*2), Y2
	VMOVUPD (R13)(R10*2), Y3
	VMOVUPD (BX)(R10*1), Y4
	VMOVUPD (R13)(R10*1), Y5
	VMOVUPD (BX)(R15*1), Y6
	VMOVUPD (R13)(R15*1), Y7
	BLOCK8(SI)
	SPLIT(X0, Y0, 0(AX), 0(R14))
	SPLIT(X1, Y1, 16(AX), 16(R14))
	SPLIT(X2, Y2, 32(AX), 32(R14))
	SPLIT(X3, Y3, 48(AX), 48(R14))
	SPLIT(X4, Y4, 64(AX), 64(R14))
	SPLIT(X5, Y5, 80(AX), 80(R14))
	SPLIT(X6, Y6, 96(AX), 96(R14))
	SPLIT(X7, Y7, 112(AX), 112(R14))
	ADDQ    $8, DX
	DECQ    R11
	JNZ     first

	ADDQ $448, SI
	MOVQ $128, R10               // d = 8 points

passes:
	LEAQ (R10)(R10*2), R15
	MOVQ R10, AX
	SHLQ $3, AX
	CMPQ AX, CX
	JBE  three
	MOVQ R10, AX
	SHLQ $2, AX
	CMPQ AX, CX
	JE   two

	// One stage left (n = 2d): one chunk, scratch to x.
	XORQ R9, R9
	MOVQ SI, AX

one:
	LEAQ    (R12)(R9*1), BX
	LEAQ    (DI)(R9*1), R13
	VMOVUPD (BX), Y0
	VMOVUPD (BX)(R10*1), Y1
	BLOCK2(AX)
	VMOVUPD Y0, (R13)
	VMOVUPD Y1, (R13)(R10*1)
	ADDQ    $64, AX
	ADDQ    $32, R9
	CMPQ    R9, R10
	JB      one
	JMP     done

two:
	// Two stages left (n = 4d): one chunk, scratch to x.
	XORQ R9, R9
	MOVQ SI, AX

tworow:
	LEAQ    (R12)(R9*1), BX
	LEAQ    (DI)(R9*1), R13
	VMOVUPD (BX), Y0
	VMOVUPD (BX)(R10*1), Y1
	VMOVUPD (BX)(R10*2), Y2
	VMOVUPD (BX)(R15*1), Y3
	BLOCK4(AX)
	VMOVUPD Y0, (R13)
	VMOVUPD Y1, (R13)(R10*1)
	VMOVUPD Y2, (R13)(R10*2)
	VMOVUPD Y3, (R13)(R15*1)
	ADDQ    $192, AX
	ADDQ    $32, R9
	CMPQ    R9, R10
	JB      tworow
	JMP     done

three:
	// Three stages over chunks of 8d points, into x on the last pass.
	MOVQ R12, R11
	CMPQ AX, CX
	JNE  chunks
	MOVQ DI, R11

chunks:
	XORQ R8, R8

chunk:
	XORQ R9, R9
	MOVQ SI, AX

row:
	LEAQ    (R8)(R9*1), R13
	LEAQ    (R12)(R13*1), BX
	LEAQ    (BX)(R10*4), DX
	ADDQ    R11, R13
	LEAQ    (R13)(R10*4), R14
	VMOVUPD (BX), Y0
	VMOVUPD (BX)(R10*1), Y1
	VMOVUPD (BX)(R10*2), Y2
	VMOVUPD (BX)(R15*1), Y3
	VMOVUPD (DX), Y4
	VMOVUPD (DX)(R10*1), Y5
	VMOVUPD (DX)(R10*2), Y6
	VMOVUPD (DX)(R15*1), Y7
	BLOCK8(AX)
	VMOVUPD Y0, (R13)
	VMOVUPD Y1, (R13)(R10*1)
	VMOVUPD Y2, (R13)(R10*2)
	VMOVUPD Y3, (R13)(R15*1)
	VMOVUPD Y4, (R14)
	VMOVUPD Y5, (R14)(R10*1)
	VMOVUPD Y6, (R14)(R10*2)
	VMOVUPD Y7, (R14)(R15*1)
	ADDQ    $448, AX
	ADDQ    $32, R9
	CMPQ    R9, R10
	JB      row
	LEAQ    (R8)(R10*8), R8
	CMPQ    R8, CX
	JB      chunk

	MOVQ AX, SI
	SHLQ $3, R10
	CMPQ R10, CX
	JB   passes

done:
	VZEROUPPER
	RET
