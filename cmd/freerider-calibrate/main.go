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

	"repro/internal/bluetooth"
	"repro/internal/channel"
	"repro/internal/runner"
	"repro/internal/wifi"
	"repro/internal/zigbee"
)

func main() {
	trials := flag.Int("trials", 20, "frames per SNR point")
	seed := flag.Int64("seed", 1, "RNG seed")
	failSNR := flag.Float64("fail-snr", 4, "SNR (dB) below which a commodity chip should miss packets")
	flag.Parse()

	snrs := []float64{0, 2, 4, 6, 8, 10, 14, 20}

	runSweep := func(title, domain string, frame func(q *float64, snr float64, s int64) error) map[float64]float64 {
		fmt.Println(title + ":")
		q := make([]float64, len(snrs))
		err := runner.Map(len(snrs), 0, func(i int) error {
			var qSum float64
			for tr := 0; tr < *trials; tr++ {
				if err := frame(&qSum, snrs[i], runner.DeriveSeed(*seed, domain, i, tr)); err != nil {
					return err
				}
			}
			q[i] = qSum / float64(*trials)
			return nil
		})
		if err != nil {
			fatal(err)
		}
		out := map[float64]float64{}
		for i, snr := range snrs {
			out[snr] = q[i]
			fmt.Printf("  snr=%5.1f dB  meanQ=%.3f\n", snr, q[i])
		}
		return out
	}

	wifiQ := runSweep("WiFi (LTF periodicity quality)", "calibrate.wifi",
		func(qSum *float64, snr float64, s int64) error {
			sig, err := wifi.NewTransmitter().Transmit(wifi.AppendFCS(make([]byte, 300)), wifi.Rates[6])
			if err != nil {
				return err
			}
			cap, err := channel.ApplySNR(sig, snr, 300, s)
			if err != nil {
				return err
			}
			_, q := wifi.NewReceiver().DetectPreamble(cap)
			*qSum += q
			return nil
		})
	fmt.Printf("  -> threshold for failure below %.1f dB: %.2f\n\n", *failSNR, interp(wifiQ, snrs, *failSNR))

	zbQ := runSweep("ZigBee (preamble correlation quality)", "calibrate.zigbee",
		func(qSum *float64, snr float64, s int64) error {
			sig, err := zigbee.NewTransmitter().Transmit(make([]byte, 60))
			if err != nil {
				return err
			}
			cap, err := channel.ApplySNR(sig, snr, 300, s)
			if err != nil {
				return err
			}
			_, q := zigbee.NewReceiver().Detect(cap)
			*qSum += q
			return nil
		})
	fmt.Printf("  -> threshold for failure below %.1f dB: %.2f\n\n", *failSNR, interp(zbQ, snrs, *failSNR))

	btQ := runSweep("Bluetooth (sync-word correlation quality)", "calibrate.bluetooth",
		func(qSum *float64, snr float64, s int64) error {
			sig, err := bluetooth.NewTransmitter().Transmit(make([]byte, 60))
			if err != nil {
				return err
			}
			cap, err := channel.ApplySNR(sig, snr, 300, s)
			if err != nil {
				return err
			}
			_, q := bluetooth.NewReceiver().Detect(cap)
			*qSum += q
			return nil
		})
	fmt.Printf("  -> threshold for failure below %.1f dB: %.2f\n", *failSNR, interp(btQ, snrs, *failSNR))
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
