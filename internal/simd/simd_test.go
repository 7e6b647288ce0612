package simd

import (
	"os"
	"os/exec"
	"runtime"
	"strings"
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
		// The env override is exercised in-process below and end-to-end in
		// TestEnvOverrideSubprocess; here init ran without it (the test
		// harness never sets it), so dispatch must be on.
		if os.Getenv(NoSIMDEnv) == "" && !Enabled() {
			t.Fatal("asm kernels available but dispatch off after init")
		}
	default:
		t.Fatalf("unknown HWMode %q", hw)
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

// TestEnvOverrideSubprocess re-executes this test binary with
// FREERIDER_NOSIMD=1 and checks that init latched dispatch off — the
// ops escape hatch must work from the environment alone, before any
// code gets a chance to call SetEnabled.
func TestEnvOverrideSubprocess(t *testing.T) {
	if os.Getenv("SIMD_ENV_HELPER") == "1" {
		if Enabled() {
			t.Fatal("dispatch enabled despite " + NoSIMDEnv)
		}
		if Mode() != "go" {
			t.Fatalf("Mode() = %q under %s, want go", Mode(), NoSIMDEnv)
		}
		return
	}
	if HWMode() == "" {
		t.Skip("no asm kernels to disable on this build")
	}
	cmd := exec.Command(os.Args[0], "-test.run=TestEnvOverrideSubprocess$", "-test.v")
	cmd.Env = append(os.Environ(), "SIMD_ENV_HELPER=1", NoSIMDEnv+"=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("helper process failed: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "PASS") {
		t.Fatalf("helper process did not pass:\n%s", out)
	}
}

// TestKernelContracts pins the argument validation that keeps the asm
// kernels inside their preconditions.
func TestKernelContracts(t *testing.T) {
	var m [64]int16
	var s [64]int32
	// Zero steps (outputs, positions) is a no-op regardless of dispatch
	// mode or build.
	ViterbiACS(&m, &s, nil, nil)
	if !FIRReal(nil, nil, nil) {
		t.Fatal("FIRReal with no outputs reported a non-finite output")
	}
	PreambleCorr(nil, nil, nil)
	LagFill(make([]uint64, FibLong))
	var kn [128]uint32
	var wn [128]float32
	ZigReject(nil, nil, &kn)
	NormAdd(nil, nil, &wn, 1)

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
		ViterbiACS(&m, &s, make([]int16, 1), make([]uint64, 1))
	})
	mustPanic("non-power-of-two size", func() {
		FFTPass(make([]complex128, 6), make([]complex128, 3), 6)
	})
	mustPanic("twiddle length", func() {
		FFTPass(make([]complex128, 4), make([]complex128, 3), 4)
	})
	mustPanic("ragged input", func() {
		FFTPass(make([]complex128, 6), make([]complex128, 2), 4)
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
