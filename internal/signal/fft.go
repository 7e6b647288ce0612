package signal

import "fmt"

// FFT computes the in-place radix-2 decimation-in-time FFT of x. The length
// must be a power of two. The transform is unnormalised (standard DFT sum).
// The twiddle factors and bit-reversal permutation come from the cached
// per-size Plan, so steady-state calls allocate nothing.
func FFT(x []complex128) error {
	if len(x) == 0 {
		return nil
	}
	p, err := PlanFor(len(x))
	if err != nil {
		return err
	}
	return p.FFT(x)
}

// IFFT computes the inverse FFT of x in place, including the 1/N
// normalisation, so IFFT(FFT(x)) == x.
func IFFT(x []complex128) error {
	if len(x) == 0 {
		return nil
	}
	p, err := PlanFor(len(x))
	if err != nil {
		return err
	}
	return p.IFFT(x)
}

// Spectrum returns the power spectrum (|X[k]|^2 / N^2) over the first n
// samples of the signal, ordered with DC at bin 0. n must be a power of two
// no larger than the signal: silently zero-padding past the end would
// report a spectrum of a signal that was never captured, so a too-large n
// is an explicit error.
func (s *Signal) Spectrum(n int) ([]float64, error) {
	if n <= 0 || n&(n-1) != 0 {
		return nil, fmt.Errorf("signal: spectrum size %d not a power of two", n)
	}
	if n > len(s.Samples) {
		return nil, fmt.Errorf("signal: spectrum size %d exceeds signal length %d", n, len(s.Samples))
	}
	a := GetArena()
	defer a.Release()
	buf := a.Complex(n)
	copy(buf, s.Samples)
	if err := FFT(buf); err != nil {
		return nil, err
	}
	out := make([]float64, n)
	norm := float64(n) * float64(n)
	for i, v := range buf {
		out[i] = (real(v)*real(v) + imag(v)*imag(v)) / norm
	}
	return out, nil
}
