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

// FIRReal, PreambleCorr and the noise kernels have no NEON twins. The Go
// compiler fuses multiply-adds on arm64, so the callers' Go loops are
// the reference there and AVX2Enabled keeps them on it.

func firReal(dst *complex128, n int, x *complex128, h *float64, m int) bool {
	panic("simd: firReal has no arm64 kernel")
}

func preambleCorr(acc *complex128, npos int, x *complex128, tpl *complex128, m int) {
	panic("simd: preambleCorr has no arm64 kernel")
}

func lagFill(y *uint64, n int) {
	panic("simd: lagFill has no arm64 kernel")
}

func zigReject(flags *uint64, u *uint64, words int, kn *uint32) {
	panic("simd: zigReject has no arm64 kernel")
}

func normAdd(x *complex128, n int, u *uint64, wn *float32, sigma float64) {
	panic("simd: normAdd has no arm64 kernel")
}
