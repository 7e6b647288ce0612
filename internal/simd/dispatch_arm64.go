//go:build !noasm

package simd

// hwDetect: NEON (AdvSIMD) is architecturally mandatory on AArch64, so
// the arm64 kernels need no feature probe.
func hwDetect() string { return "neon" }

// viterbiACS is the NEON ACS kernel (viterbi_arm64.s).
//
//go:noescape
func viterbiACS(metric *[64]int16, signs *[64]int32, q *int16, tb *uint64, steps int)

// fftPass is the NEON radix-2 butterfly pass (fft_arm64.s).
//
//go:noescape
func fftPass(x *complex128, n int, tw *complex128, size int)

// rxKernels: FIRReal and PreambleCorr have no NEON twins. The Go compiler
// fuses multiply-adds on arm64, so the callers' Go loops are the
// reference there and RxEnabled keeps them on it.
const rxKernels = false

func firReal(dst *complex128, n int, x *complex128, h *float64, m int) {
	panic("simd: firReal has no arm64 kernel")
}

func preambleCorr(acc *complex128, stride int, pow *float64, npos int, x *complex128, tpl *complex128, seg int, segs int) {
	panic("simd: preambleCorr has no arm64 kernel")
}
