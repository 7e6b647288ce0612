// Command freerider-calibrate re-derives the receiver detection-quality
// curves the link calibration rests on: for each radio it sweeps SNR,
// measures the mean preamble-detection quality on the native link, and
// prints the quality value at a chosen sensitivity point.
// The thresholds baked into internal/core (0.72 WiFi periodicity, 0.85
// ZigBee correlation, 0.81 Bluetooth sync correlation) come from exactly
// this procedure; re-run it after changing any receiver internals.
//
// Usage:
//
//	freerider-calibrate [-trials N] [-seed N] [-fail-snr dB]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/runner"
)

// radios holds each radio's sweep, indexed by core.Radio and printed in
// that order: its title, its DeriveSeed domain and the payload size of its
// native frame.
var radios = [...]struct {
	title, domain string
	size          int
}{
	core.WiFi:      {"WiFi (LTF periodicity quality)", "calibrate.wifi", 300},
	core.ZigBee:    {"ZigBee (preamble correlation quality)", "calibrate.zigbee", 60},
	core.Bluetooth: {"Bluetooth (sync-word correlation quality)", "calibrate.bluetooth", 60},
}

func main() {
	trials := flag.Int("trials", 20, "frames per SNR point")
	seed := flag.Int64("seed", 1, "RNG seed")
	failSNR := flag.Float64("fail-snr", 4, "SNR (dB) below which a commodity chip should miss packets")
	flag.Parse()

	snrs := []float64{0, 2, 4, 6, 8, 10, 14, 20}
	for ri, r := range radios {
		if ri > 0 {
			fmt.Println()
		}
		link := experiments.NativeLinks[ri]
		fmt.Println(r.title + ":")
		q := make([]float64, len(snrs))
		_, err := runner.Map(len(snrs), 0, func(i int) error {
			var qSum float64
			for tr := 0; tr < *trials; tr++ {
				sig, err := link.Transmit(make([]byte, r.size))
				if err != nil {
					return err
				}
				cap, err := channel.ApplySNR(sig, snrs[i], 300, runner.DeriveSeed(*seed, r.domain, i, tr))
				if err != nil {
					return err
				}
				qSum += link.Detect(cap)
			}
			q[i] = qSum / float64(*trials)
			return nil
		})
		if err != nil {
			fatal(err)
		}
		curve := map[float64]float64{}
		for i, snr := range snrs {
			curve[snr] = q[i]
			fmt.Printf("  snr=%5.1f dB  meanQ=%.3f\n", snr, q[i])
		}
		fmt.Printf("  -> threshold for failure below %.1f dB: %.2f\n", *failSNR, interp(curve, snrs, *failSNR))
	}
}

// interp linearly interpolates the measured quality curve at snr.
func interp(q map[float64]float64, snrs []float64, snr float64) float64 {
	if snr <= snrs[0] {
		return q[snrs[0]]
	}
	for i := 1; i < len(snrs); i++ {
		if snr <= snrs[i] {
			lo, hi := snrs[i-1], snrs[i]
			frac := (snr - lo) / (hi - lo)
			return q[lo]*(1-frac) + q[hi]*frac
		}
	}
	return q[snrs[len(snrs)-1]]
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
