package wifi

import (
	"math"
	"math/cmplx"
	"sync"

	"repro/internal/signal"
)

// stfFreq holds the nonzero short-training-field subcarrier values
// (§17.3.3): S_k = sqrt(13/6)·(±1±j) on 12 subcarriers.
var stfFreq = map[int]complex128{
	-24: complex(1, 1), -20: complex(-1, -1), -16: complex(1, 1),
	-12: complex(-1, -1), -8: complex(-1, -1), -4: complex(1, 1),
	4: complex(-1, -1), 8: complex(-1, -1), 12: complex(1, 1),
	16: complex(1, 1), 20: complex(1, 1), 24: complex(1, 1),
}

// ltfFreq holds the long-training-field subcarrier values L_k (±1) for
// k in [-26, 26], k != 0.
var ltfFreq = buildLTFFreq()

func buildLTFFreq() map[int]complex128 {
	pos := []float64{ // k = 1..26
		1, -1, -1, 1, 1, -1, 1, -1, 1, -1, -1, -1, -1, -1, 1, 1,
		-1, -1, 1, -1, 1, -1, 1, 1, 1, 1,
	}
	neg := []float64{ // k = -26..-1
		1, 1, -1, -1, 1, 1, -1, 1, -1, 1, 1, 1, 1, 1, 1, -1,
		-1, 1, 1, -1, 1, -1, 1, 1, 1, 1,
	}
	m := make(map[int]complex128, 52)
	for i, v := range pos {
		m[i+1] = complex(v, 0)
	}
	for i, v := range neg {
		m[i-26] = complex(v, 0)
	}
	return m
}

// LTFValue returns the known LTF value on subcarrier k (0 for unused).
func LTFValue(k int) complex128 { return ltfFreq[k] }

// The preamble and LTF are pure functions of spec constants, so they are
// synthesised once and served from these templates afterwards. The conjugate
// LTF and its power feed the matched-filter scan in detectTiming.
var (
	templateOnce sync.Once
	preambleTmpl []complex128
	ltfTmpl      []complex128
	ltfConjTmpl  []complex128
	ltfTmplPower float64
)

func initTemplates() {
	ltfTmpl = buildLTFTime()
	preambleTmpl = buildPreamble()
	ltfConjTmpl = make([]complex128, len(ltfTmpl))
	for i, v := range ltfTmpl {
		ltfConjTmpl[i] = cmplx.Conj(v)
		ltfTmplPower += real(v)*real(v) + imag(v)*imag(v)
	}
}

// buildPreamble synthesises the 320-sample legacy preamble: 10
// repetitions of the 16-sample short symbol (160 samples) followed by a
// 32-sample cyclic prefix and two 64-sample long training symbols (160
// samples).
func buildPreamble() []complex128 {
	out := make([]complex128, 0, PreambleLen)

	// STF: IFFT of S, periodic with period 16; take 160 samples.
	var stf [FFTSize]complex128
	scale := complex(math.Sqrt(13.0/6.0)*float64(FFTSize)/sqrtNused, 0)
	for k, v := range stfFreq {
		stf[binFor(k)] = v * scale
	}
	std := make([]complex128, FFTSize)
	copy(std, stf[:])
	if err := signal.IFFT(std); err != nil {
		panic("wifi: preamble IFFT: " + err.Error()) // length is a constant power of two
	}
	for i := 0; i < 160; i++ {
		out = append(out, std[i%FFTSize])
	}

	// LTF: 32-sample CP + two copies of the 64-sample long symbol.
	lt := ltfTmpl
	out = append(out, lt[FFTSize-32:]...)
	out = append(out, lt...)
	out = append(out, lt...)
	return out
}

func buildLTFTime() []complex128 {
	var freq [FFTSize]complex128
	scale := complex(float64(FFTSize)/sqrtNused, 0)
	for k, v := range ltfFreq {
		freq[binFor(k)] = v * scale
	}
	td := make([]complex128, FFTSize)
	copy(td, freq[:])
	if err := signal.IFFT(td); err != nil {
		panic("wifi: LTF IFFT: " + err.Error())
	}
	return td
}
