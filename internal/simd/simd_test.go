package simd

import (
	"runtime"
	"testing"
)

// TestDispatchSelection pins the init-time decision: on a build with
// asm kernels for this CPU, dispatch starts enabled and Mode names the
// ISA; on a noasm build (or an arch without kernels) it is permanently
// off and SetEnabled(true) must refuse to lie about it.
func TestDispatchSelection(t *testing.T) {
	hw := HWMode()
	switch hw {
	case "":
		if Enabled() {
			t.Fatal("Enabled() with no asm kernels")
		}
		if Mode() != "go" {
			t.Fatalf("Mode() = %q, want go", Mode())
		}
		if SetEnabled(true); Enabled() {
			t.Fatal("SetEnabled(true) enabled dispatch on a kernel-less build")
		}
	case "avx2":
		if (hw == "avx2") != (runtime.GOARCH == "amd64") {
			t.Fatalf("HWMode %q on %s", hw, runtime.GOARCH)
		}
		if !Enabled() {
			t.Fatal("asm kernels available but dispatch off after init")
		}
	default:
		t.Fatalf("unknown HWMode %q", hw)
	}
}

// TestViterbiACSRange pins the range ViterbiACS takes: a metric or
// symbol one past ±ViterbiMaxMetric or ±ViterbiMaxSymbol, in any
// position (the symbol scan has a 16-wide vector body and a scalar
// tail), makes it decline and leave its outputs untouched; the bounds
// themselves are taken.
func TestViterbiACSRange(t *testing.T) {
	if HWMode() == "" {
		t.Skip("no asm kernels in this build")
	}
	var plus [64]int16
	for i := range plus {
		plus[i] = 1
	}
	signs := NewViterbiSigns(&plus)
	const steps = 9 // 18 symbols: one vector block and a two-symbol tail
	try := func(m [64]int16, q []int16) bool {
		t.Helper()
		tb := make([]uint64, steps)
		for i := range tb {
			tb[i] = 0xA5A5
		}
		before := m
		ok := ViterbiACS(&m, &signs, q, tb, 5)
		if !ok && (m != before || tb[0] != 0xA5A5 || tb[steps-1] != 0xA5A5) {
			t.Fatal("ViterbiACS declined but wrote its outputs")
		}
		return ok
	}
	for _, bound := range []int16{ViterbiMaxMetric, -ViterbiMaxMetric} {
		for _, pos := range []int{0, 17, 63} {
			var m [64]int16
			m[pos] = bound
			if !try(m, make([]int16, 2*steps)) {
				t.Errorf("metric %d at state %d declined", bound, pos)
			}
			m[pos] += bound / ViterbiMaxMetric
			if try(m, make([]int16, 2*steps)) {
				t.Errorf("metric %d at state %d taken", m[pos], pos)
			}
		}
	}
	for _, bound := range []int16{ViterbiMaxSymbol, -ViterbiMaxSymbol} {
		for _, pos := range []int{0, 15, 16, 2*steps - 1} {
			var m [64]int16
			q := make([]int16, 2*steps)
			q[pos] = bound
			if !try(m, q) {
				t.Errorf("symbol %d at %d declined", bound, pos)
			}
			q[pos] += bound / ViterbiMaxSymbol
			if try(m, q) {
				t.Errorf("symbol %d at %d taken", q[pos], pos)
			}
		}
	}
}

// TestSetEnabledRoundTrip checks the runtime toggle and that Mode
// tracks it, restoring the ambient state on exit.
func TestSetEnabledRoundTrip(t *testing.T) {
	prev := Enabled()
	defer SetEnabled(prev)

	was := SetEnabled(false)
	if was != prev {
		t.Fatalf("SetEnabled returned %v, want previous state %v", was, prev)
	}
	if Enabled() || Mode() != "go" {
		t.Fatalf("after SetEnabled(false): Enabled=%v Mode=%q", Enabled(), Mode())
	}
	SetEnabled(true)
	if HWMode() == "" {
		if Enabled() {
			t.Fatal("enabled dispatch without kernels")
		}
	} else if !Enabled() || Mode() != HWMode() {
		t.Fatalf("after SetEnabled(true): Enabled=%v Mode=%q HW=%q", Enabled(), Mode(), HWMode())
	}
}

// TestKernelContracts pins the argument validation that keeps the asm
// kernels inside their preconditions.
func TestKernelContracts(t *testing.T) {
	var m [64]int16
	var s ViterbiSigns
	// Zero steps (outputs, positions) is a no-op regardless of dispatch
	// mode or build.
	if !ViterbiACS(&m, &s, nil, nil, 0) {
		t.Fatal("ViterbiACS of no steps declined")
	}
	if !FIRReal(nil, nil, nil) {
		t.Fatal("FIRReal with no outputs reported a non-finite output")
	}
	PreambleCorr(nil, nil, nil)
	LagFill(make([]uint64, FibLong))
	var kn [128]uint32
	var wn [128]float32
	ZigReject(nil, nil, &kn)
	NormAdd(nil, nil, &wn, 1)
	if Pack(nil, nil, nil) != 0 {
		t.Fatal("Pack of no draws kept some")
	}
	Scale(nil, nil, 2)
	if ScalePower(nil, 2) != 0 {
		t.Fatal("ScalePower of no samples is not 0")
	}
	if !DivScale(nil, nil, 1, 2) {
		t.Fatal("DivScale of no samples reported a NaN quotient")
	}
	if !Equalise(nil, nil, nil, nil, 1) {
		t.Fatal("Equalise of no outputs reported a NaN quotient")
	}

	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("short q", func() {
		ViterbiACS(&m, &s, make([]int16, 1), make([]uint64, 1), 0)
	})
	mustPanic("ViterbiACS renormAt past the period", func() {
		ViterbiACS(&m, &s, make([]int16, 2), make([]uint64, 1), ViterbiRenorm)
	})
	mustPanic("ViterbiACS negative renormAt", func() {
		ViterbiACS(&m, &s, make([]int16, 2), make([]uint64, 1), -1)
	})
	mustPanic("FFT below the minimum size", func() {
		FFT(make([]complex128, 8), make([]float64, 56))
	})
	mustPanic("FFT above the maximum size", func() {
		FFT(make([]complex128, 2048), make([]float64, fftTableLen(2048)))
	})
	mustPanic("FFT non-power-of-two size", func() {
		FFT(make([]complex128, 24), make([]float64, 88))
	})
	mustPanic("FFT twiddle length", func() {
		FFT(make([]complex128, 16), make([]float64, 56))
	})
	mustPanic("FFTTwiddles too few stages", func() {
		FFTTwiddles(make([][]complex128, 3))
	})
	mustPanic("FFTTwiddles stage length", func() {
		FFTTwiddles([][]complex128{make([]complex128, 1), make([]complex128, 2), make([]complex128, 4), make([]complex128, 7)})
	})
	mustPanic("FIR output count", func() {
		FIRReal(make([]complex128, 6), make([]complex128, 8), make([]float64, 3))
	})
	mustPanic("FIR short input", func() {
		FIRReal(make([]complex128, 8), make([]complex128, 9), make([]float64, 3))
	})
	mustPanic("FIR no taps", func() {
		FIRReal(make([]complex128, 8), make([]complex128, 8), nil)
	})
	mustPanic("LagFill short window", func() { LagFill(make([]uint64, FibLong-1)) })
	mustPanic("LagFill ragged block", func() { LagFill(make([]uint64, FibLong+8)) })
	mustPanic("ZigReject ragged draws", func() { ZigReject(make([]uint64, 1), make([]uint64, 65), &kn) })
	mustPanic("NormAdd short draws", func() {
		NormAdd(make([]complex128, 4), make([]uint64, 7), &wn, 1)
	})
	mustPanic("Pack short dst", func() { Pack(make([]uint64, 3), make([]uint64, 4), make([]uint64, 1)) })
	mustPanic("Pack short drop mask", func() { Pack(make([]uint64, 65), make([]uint64, 65), make([]uint64, 1)) })
	mustPanic("Scale length mismatch", func() {
		Scale(make([]complex128, 3), make([]complex128, 4), 2)
	})
	mustPanic("DivScale length mismatch", func() {
		DivScale(make([]complex128, 5), make([]complex128, 4), 1, 2)
	})
	var coef [2]EqualiseCoef
	bins := []int32{0, 1, 2, 3}
	mustPanic("Equalise odd output count", func() {
		Equalise(make([]complex128, 3), make([]complex128, 8), bins[:3], coef[:1], 1)
	})
	mustPanic("Equalise bins mismatch", func() {
		Equalise(make([]complex128, 4), make([]complex128, 8), bins[:2], coef[:2], 1)
	})
	mustPanic("Equalise coefficient pairs mismatch", func() {
		Equalise(make([]complex128, 4), make([]complex128, 8), bins, coef[:1], 1)
	})
	mustPanic("EqualiseCoef mode", func() { coef[0].Set(0, 3, 1, 1) })
	if HWMode() != "" {
		// The kernel checks each bin index before reading it.
		prev := SetEnabled(true)
		for _, bad := range []int32{8, -1} {
			mustPanic("Equalise bin outside the input", func() {
				Equalise(make([]complex128, 4), make([]complex128, 8), []int32{0, 1, 2, bad}, coef[:], 1)
			})
		}
		SetEnabled(prev)
	}
	tpl := make([]complex128, 64)
	mustPanic("corr position count", func() {
		PreambleCorr(make([]complex128, 4), make([]complex128, 128), tpl)
	})
	mustPanic("corr empty template", func() {
		PreambleCorr(make([]complex128, 8), make([]complex128, 128), nil)
	})
	mustPanic("corr short input", func() {
		PreambleCorr(make([]complex128, 8), make([]complex128, 70), tpl)
	})
}
