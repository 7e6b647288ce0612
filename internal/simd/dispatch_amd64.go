//go:build !noasm

package simd

// hwDetect reports "avx2" when the CPU and OS support the AVX2 kernels:
// CPUID leaf 1 must show AVX+OSXSAVE, XGETBV must show the OS saves
// ymm state, and leaf 7 must show AVX2. Anything less falls back to
// the pure-Go kernels.
func hwDetect() string {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return ""
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsaveBit = 1 << 27
	const avxBit = 1 << 28
	if ecx1&osxsaveBit == 0 || ecx1&avxBit == 0 {
		return ""
	}
	// xcr0 bits 1 (SSE) and 2 (AVX) must both be OS-enabled.
	if xgetbv0()&0x6 != 0x6 {
		return ""
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2Bit = 1 << 5
	if ebx7&avx2Bit == 0 {
		return ""
	}
	return "avx2"
}

// cpuid executes CPUID with the given leaf/subleaf.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads extended control register 0 (requires OSXSAVE).
func xgetbv0() uint64

// viterbiACS is the AVX2 ACS kernel (viterbi_amd64.s).
//
//go:noescape
func viterbiACS(metric *[64]int16, signs *ViterbiSigns, q *int16, tb *uint64, steps, renormAt int) (ok bool)

// fft is the AVX2 whole-transform FFT kernel (fft_amd64.s).
//
//go:noescape
func fft(x *complex128, n int, tw *float64, cols *uint32)

// firReal is the AVX2 real-tap FIR kernel (fir_amd64.s).
//
//go:noescape
func firReal(dst *complex128, n int, x *complex128, h *float64, m int) (finite bool)

// preambleCorr is the AVX2 sliding correlation kernel (corr_amd64.s).
//
//go:noescape
func preambleCorr(acc *complex128, npos int, x *complex128, tpl *complex128, m int)

// lagFill is the AVX2 lagged-Fibonacci block fill (noise_amd64.s).
//
//go:noescape
func lagFill(y *uint64, n int)

// zigReject is the AVX2 ziggurat acceptance scan (noise_amd64.s).
//
//go:noescape
func zigReject(flags *uint64, u *uint64, words int, kn *uint32)

// normAdd is the AVX2 ziggurat fast-path add (noise_amd64.s).
//
//go:noescape
func normAdd(x *complex128, n int, u *uint64, wn *float32, sigma float64)

// pack is the AVX2 left-pack of the kept draws (noise_amd64.s).
//
//go:noescape
func pack(dst *uint64, u *uint64, passes int, drop *uint64) (k int)

// scale is the AVX2 complex scale (scale_amd64.s).
//
//go:noescape
func scale(dst, x *complex128, n int, gr, gi float64)

// scalePower is the AVX2 in-place scale plus power sum (scale_amd64.s).
//
//go:noescape
func scalePower(x *complex128, n int, gr, gi float64) (p float64)

// divScale is the AVX2 real-divisor quotient and scale (scale_amd64.s).
//
//go:noescape
func divScale(dst, x *complex128, n int, inv, gr, gi float64) (ok bool)

// rotate is the AVX2 per-sample phasor product (scale_amd64.s).
//
//go:noescape
func rotate(dst, x *complex128, n int, runs, tab *complex128)

// mul is the AVX2 elementwise complex product (scale_amd64.s).
//
//go:noescape
func mul(dst, x, y *complex128, n int)

// equalise is the AVX2 gather, scale and Smith division (equalise_amd64.s).
//
//go:noescape
func equalise(dst, x *complex128, n int, bins *int32, coef *EqualiseCoef, pairs int, inv float64) (status int)
