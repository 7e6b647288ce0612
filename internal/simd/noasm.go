//go:build noasm || !amd64

package simd

// hwDetect: this build carries no asm kernels (the noasm tag or an
// architecture without one), so dispatch stays permanently off and
// every caller takes its pure-Go path.
func hwDetect() string { return "" }

// The kernel stubs exist so the package API is build-tag independent.
// They are unreachable: Enabled() is always false on these builds and
// SetEnabled(true) refuses to turn it on, so a call here is a caller
// bug (dispatching without checking Enabled).

func viterbiACS(metric *[64]int16, signs *ViterbiSigns, q *int16, tb *uint64, steps, renormAt int) bool {
	panic("simd: viterbiACS called on a build without asm kernels")
}

func fft(x *complex128, n int, tw *float64, cols *uint32) {
	panic("simd: fft called on a build without asm kernels")
}

func firReal(dst *complex128, n int, x *complex128, h *float64, m int) bool {
	panic("simd: firReal called on a build without asm kernels")
}

func preambleCorr(acc *complex128, npos int, x *complex128, tpl *complex128, m int) {
	panic("simd: preambleCorr called on a build without asm kernels")
}

func lagFill(y *uint64, n int) {
	panic("simd: lagFill called on a build without asm kernels")
}

func zigReject(flags *uint64, u *uint64, words int, kn *uint32) {
	panic("simd: zigReject called on a build without asm kernels")
}

func normAdd(x *complex128, n int, u *uint64, wn *float32, sigma float64) {
	panic("simd: normAdd called on a build without asm kernels")
}

func pack(dst *uint64, u *uint64, passes int, drop *uint64) int {
	panic("simd: pack called on a build without asm kernels")
}

func scale(dst, x *complex128, n int, gr, gi float64) {
	panic("simd: scale called on a build without asm kernels")
}

func scalePower(x *complex128, n int, gr, gi float64) float64 {
	panic("simd: scalePower called on a build without asm kernels")
}

func divScale(dst, x *complex128, n int, inv, gr, gi float64) bool {
	panic("simd: divScale called on a build without asm kernels")
}

func rotate(dst, x *complex128, n int, runs, tab *complex128) {
	panic("simd: rotate called on a build without asm kernels")
}

func mul(dst, x, y *complex128, n int) {
	panic("simd: mul called on a build without asm kernels")
}

func equalise(dst, x *complex128, n int, bins *int32, coef *EqualiseCoef, pairs int, inv float64) int {
	panic("simd: equalise called on a build without asm kernels")
}
