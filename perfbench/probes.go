package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/signal"
	"repro/internal/wifi"
)

// layerProbes times the two kernels that run inside wifi.Receiver.Receive
// and so cannot be timed from outside the receiver: the Viterbi decoder on
// one default-size packet's coded bits and a 64-point FFT plan. Each is the
// median of several batches.
func layerProbes(m metrics) error {
	rng := rand.New(rand.NewSource(1))
	psdu := make([]byte, defaultWiFiPSDU)
	rng.Read(psdu)
	coded, err := wifi.CodedBits(psdu, wifi.Rates[6], 0x5d)
	if err != nil {
		return fmt.Errorf("viterbi probe: %w", err)
	}
	dst := make([]byte, len(coded)/2)
	var vit []float64
	for b := 0; b < 9; b++ {
		t0 := time.Now()
		const calls = 5
		for i := 0; i < calls; i++ {
			if _, err := wifi.ViterbiDecodeInto(dst, coded); err != nil {
				return fmt.Errorf("viterbi probe: %w", err)
			}
		}
		vit = append(vit, float64(time.Since(t0))/1e3/calls)
	}
	m.set("wifi.viterbi_us", median(vit), "us")

	plan, err := signal.PlanFor(64)
	if err != nil {
		return fmt.Errorf("fft probe: %w", err)
	}
	x := make([]complex128, 64)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	var fft []float64
	for b := 0; b < 9; b++ {
		t0 := time.Now()
		const calls = 2000
		for i := 0; i < calls; i++ {
			if err := plan.FFT(x); err != nil {
				return fmt.Errorf("fft probe: %w", err)
			}
		}
		fft = append(fft, float64(time.Since(t0))/calls)
	}
	m.set("signal.fft64_ns", median(fft), "ns")
	return nil
}

// defaultWiFiPSDU is the PSDU size of core.DefaultConfig's WiFi packet
// (1500-byte payload plus the 4-byte FCS).
const defaultWiFiPSDU = 1504
