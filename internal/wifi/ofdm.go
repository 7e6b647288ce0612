package wifi

import (
	"fmt"
	"math"

	"repro/internal/signal"
	"repro/internal/simd"
)

// symbolInto finishes one OFDM symbol whose 48 data bins the caller has
// already written into td (FFTSize bins, clobbered): it sets the pilot
// and null bins, runs the inverse transform, and writes the scaled body
// and cyclic prefix straight into dst (SymbolLen samples).
//
// The output must equal signal.IFFT followed by a complex multiply by
// N/√52 bit for bit (the reference chain in tx_ref_test.go), so the
// per-bin loop keeps Plan.IFFT's inlined Smith division by complex(N, 0)
// term for term — (re + im·0) and (im − re·0), ratio being +0 — with the
// runtime fallback on NaN. Only the final ÷N becomes ×2⁻⁶: N is a power
// of two, so both are the correctly rounded value of the same real
// number. Dispatched, the tail is one simd.DivScale pass, which reports
// the bins that need the fallback; the Go loop then redoes the symbol.
func symbolInto(dst, td []complex128, symIdx int) error {
	p := PilotPolarity(symIdx)
	for i, pl := range PilotSubcarriers {
		td[pilotBins[i]] = complex(pl.Polarity*p, 0)
	}
	for _, bin := range nullBins {
		td[bin] = 0
	}
	if err := fftPlan64.InverseRaw(td); err != nil {
		return err
	}
	scale := complex(float64(FFTSize)/sqrtNused, 0)
	body := dst[CPLen:SymbolLen]
	if !simd.Enabled() || !simd.DivScale(body, td[:FFTSize], invN, scale) {
		symbolScaleGo(body, td[:FFTSize], scale)
	}
	copy(dst[:CPLen], body[FFTSize-CPLen:])
	return nil
}

// symbolScaleGo is symbolInto's per-bin tail and simd.DivScale's
// definition at inv = 2⁻⁶, with the runtime's fallback where both
// quotient parts are NaN (the kernel reports those and the caller
// reruns this loop).
func symbolScaleGo(body, td []complex128, scale complex128) {
	for i, v := range td {
		re, im := real(v), imag(v)
		e := (re + im*0) * invN
		f := (im - re*0) * invN
		if math.IsNaN(e) && math.IsNaN(f) {
			v /= complex(FFTSize, 0)
		} else {
			v = complex(e, f)
		}
		body[i] = v * scale
	}
}

// invN is 1/FFTSize, exact.
const invN = 0x1p-6

// sqrtNused normalises symbol power to the 52 used subcarriers.
var sqrtNused = math.Sqrt(52)

// fftPlan64 is the FFTSize plan every symbol transform runs on, resolved
// once so the per-symbol hot path skips the plan-cache map lookup.
var fftPlan64 = mustPlan(FFTSize)

func mustPlan(n int) *signal.Plan {
	p, err := signal.PlanFor(n)
	if err != nil {
		panic(err)
	}
	return p
}

// equalizer caches the divisor-only terms of the runtime's Smith-algorithm
// complex division for one channel estimate: the branch selection, ratio,
// and denom of each bin depend only on h[i], so a packet's ~hundreds of
// data symbols can share one computation of them. The per-point work keeps
// the exact numerator operations of the runtime division (plan.go's IFFT
// uses the same inlining for its constant divisor), so equalised points are
// bit-identical to the historical per-symbol `buf[i] /= h[i]`.
//
// coef lays the same terms out for simd.Equalise, in output order (the
// data bins, then the pilot bins: eqBins), so a dispatched symbol is one
// vector pass over the 52 used bins.
type equalizer struct {
	h     []complex128 // original estimate, for the NaN fallback
	ratio [FFTSize]float64
	denom [FFTSize]float64
	mode  [FFTSize]byte // 0: h[i]==0 (skip), 1: |re|≥|im| branch, 2: other
	coef  [(NumData + NumPilots) / 2]simd.EqualiseCoef
}

func (eq *equalizer) init(h []complex128) {
	if h == nil {
		// No estimate (unreachable FFT failure): disable every bin, like
		// the historical nil-h guard.
		*eq = equalizer{}
		return
	}
	h = h[:FFTSize]
	eq.h = h
	for i, d := range h {
		dr, di := real(d), imag(d)
		switch {
		case d == 0:
			eq.mode[i] = 0
		case math.Abs(dr) >= math.Abs(di):
			r := di / dr
			eq.ratio[i], eq.denom[i], eq.mode[i] = r, dr+r*di, 1
		default:
			r := dr / di
			eq.ratio[i], eq.denom[i], eq.mode[i] = r, di+r*dr, 2
		}
	}
	for j, bin := range eqBins {
		eq.coef[j/2].Set(j%2, int(eq.mode[bin]), eq.ratio[bin], eq.denom[bin])
	}
}

// disassembleSymbolBuf strips the cyclic prefix of one received OFDM
// symbol, FFTs it, equalises it, and writes the 48 data points and 4 pilot
// points (in PilotSubcarriers order). It takes caller-provided FFT
// scratch (FFTSize samples, fully overwritten), a prebuilt equalizer (nil
// means no equalisation), and output arrays, so per-symbol loops can reuse
// one buffer for a whole packet and skip the two 48/4-element array copies
// per return.
func disassembleSymbolBuf(td []complex128, eq *equalizer, buf []complex128, data *[NumData]complex128, pilots *[NumPilots]complex128) error {
	if len(td) != SymbolLen {
		return fmt.Errorf("wifi: symbol has %d samples, want %d", len(td), SymbolLen)
	}
	copy(buf, td[CPLen:])
	if err := fftPlan64.FFT(buf); err != nil {
		return err
	}
	// Undo the TX scaling: TX multiplied by N/sqrt(52); FFT multiplies by N
	// relative to the data points, so divide by N·(N/sqrt(52))... combined:
	// point = bin / (N/sqrt(52)) after the FFT's implicit ×1 (unnormalised
	// FFT of IFFT output returns original × 1). The IFFT divides by N, the
	// FFT multiplies by N, so only the TX scale remains.
	inv := complex(sqrtNused/float64(FFTSize), 0)
	// Equalisation fuses into the extraction loops: only the 52 used bins
	// ever escape this function (buf is scratch, fully overwritten next
	// symbol), so scaling and dividing the 12 unused bins — and the store/
	// reload round-trip through buf — was pure waste. Every extracted value
	// goes through the exact historical operation sequence per bin.
	if eq == nil {
		for i, bin := range dataBins {
			data[i] = buf[bin] * inv
		}
		for i, bin := range pilotBins {
			pilots[i] = buf[bin] * inv
		}
		return nil
	}
	eq.apply(buf, inv, data, pilots)
	return nil
}

// apply equalises the used bins of one transformed symbol: each bin
// scaled by inv, then divided by its channel estimate, into the data
// and pilot arrays. Dispatched, it is one simd.Equalise pass per output
// array; the kernel reports any bin that needs the runtime division's
// NaN fallback, and applyGo then redoes the symbol. A nil estimate
// leaves eq zeroed (every bin mode 0 but no coefficients laid out), so
// it takes applyGo too.
func (eq *equalizer) apply(buf []complex128, inv complex128, data *[NumData]complex128, pilots *[NumPilots]complex128) {
	if eq.h != nil && simd.Enabled() &&
		simd.Equalise(data[:], buf, eqBins[:NumData], eq.coef[:NumData/2], real(inv)) &&
		simd.Equalise(pilots[:], buf, eqBins[NumData:], eq.coef[NumData/2:], real(inv)) {
		return
	}
	eq.applyGo(buf, inv, data, pilots)
}

// applyGo is apply's Go loops and simd.Equalise's definition: every
// value goes through the exact historical operation sequence per bin,
// the runtime's Smith division with the divisor-only terms hoisted.
func (eq *equalizer) applyGo(buf []complex128, inv complex128, data *[NumData]complex128, pilots *[NumPilots]complex128) {
	for i, bin := range dataBins {
		v := buf[bin] * inv
		switch eq.mode[bin] {
		case 1:
			re, im := real(v), imag(v)
			e := (re + im*eq.ratio[bin]) / eq.denom[bin]
			f := (im - re*eq.ratio[bin]) / eq.denom[bin]
			if math.IsNaN(e) && math.IsNaN(f) {
				v /= eq.h[bin]
			} else {
				v = complex(e, f)
			}
		case 2:
			re, im := real(v), imag(v)
			e := (re*eq.ratio[bin] + im) / eq.denom[bin]
			f := (im*eq.ratio[bin] - re) / eq.denom[bin]
			if math.IsNaN(e) && math.IsNaN(f) {
				v /= eq.h[bin]
			} else {
				v = complex(e, f)
			}
		}
		data[i] = v
	}
	for i, bin := range pilotBins {
		v := buf[bin] * inv
		switch eq.mode[bin] {
		case 1:
			re, im := real(v), imag(v)
			e := (re + im*eq.ratio[bin]) / eq.denom[bin]
			f := (im - re*eq.ratio[bin]) / eq.denom[bin]
			if math.IsNaN(e) && math.IsNaN(f) {
				v /= eq.h[bin]
			} else {
				v = complex(e, f)
			}
		case 2:
			re, im := real(v), imag(v)
			e := (re*eq.ratio[bin] + im) / eq.denom[bin]
			f := (im*eq.ratio[bin] - re) / eq.denom[bin]
			if math.IsNaN(e) && math.IsNaN(f) {
				v /= eq.h[bin]
			} else {
				v = complex(e, f)
			}
		}
		pilots[i] = v
	}
}

// dataBins and pilotBins cache the binFor mapping of the data and pilot
// subcarriers for the per-symbol assembly and extraction loops.
var (
	dataBins  = buildDataBins()
	pilotBins = buildPilotBins()
	// nullBins are the 12 bins no subcarrier uses — DC and the guard band
	// (subcarriers ±27..±32) — which the transmitter zeroes before every
	// symbol transform.
	nullBins = [FFTSize - NumData - NumPilots]int{0, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37}
)

// eqBins lists the data bins, then the pilot bins: the equaliser's
// output order.
var eqBins = func() (t [NumData + NumPilots]int32) {
	for i, bin := range dataBins {
		t[i] = int32(bin)
	}
	for i, bin := range pilotBins {
		t[NumData+i] = int32(bin)
	}
	return t
}()

func buildDataBins() (t [NumData]int) {
	for i, k := range DataSubcarriers {
		t[i] = binFor(k)
	}
	return t
}

func buildPilotBins() (t [NumPilots]int) {
	for i, pl := range PilotSubcarriers {
		t[i] = binFor(pl.Index)
	}
	return t
}

// binFor maps a subcarrier index (-26..26) to its FFT bin.
func binFor(k int) int {
	if k >= 0 {
		return k
	}
	return FFTSize + k
}

// usedBins caches UsedBins for the receiver's hot loops.
var usedBins = UsedBins()

// UsedBins returns the FFT bins of all 52 used subcarriers.
func UsedBins() []int {
	out := make([]int, 0, 52)
	for k := -26; k <= 26; k++ {
		if k == 0 {
			continue
		}
		out = append(out, binFor(k))
	}
	return out
}
