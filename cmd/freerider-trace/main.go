// Command freerider-trace inspects the ambient-traffic model and the PLM
// downlink: it prints the Fig 3 duration histogram, the aliasing risk of a
// PLM scheme, and an example pulse schedule for a scheduling message.
//
// Usage:
//
//	freerider-trace [-samples N] [-seed N] [-message BITS]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
	"repro/internal/plm"
)

func main() {
	samples := flag.Int("samples", 500000, "ambient packet durations to draw")
	seed := flag.Int64("seed", 1, "RNG seed")
	message := flag.String("message", "11010010", "scheduling message bits to schedule")
	flag.Parse()

	bits := make([]byte, 0, len(*message))
	for i, c := range *message {
		switch c {
		case '0':
			bits = append(bits, 0)
		case '1':
			bits = append(bits, 1)
		default:
			fmt.Fprintf(os.Stderr, "message bit %d is %q, want 0 or 1\n", i, c)
			os.Exit(2)
		}
	}

	// The histogram and alias probability are the Fig 3 experiment's, drawn
	// from its derived seed streams.
	res, err := experiments.Fig3AmbientDurations(*samples, experiments.Options{Seed: *seed})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Printf("ambient traffic model (%d samples):\n", *samples)
	peak := 0.0
	for _, d := range res.Density {
		if d > peak {
			peak = d
		}
	}
	for i, c := range res.BinCentresMs {
		bar := strings.Repeat("#", int(res.Density[i]/peak*50))
		fmt.Printf("  %5.2f ms %s\n", c, bar)
	}

	scheme := plm.DefaultScheme()
	fmt.Printf("\nPLM scheme: L0=%.0fus L1=%.0fus gap=%.0fus bound=±%.0fus rate=%.0f bps\n",
		scheme.L0*1e6, scheme.L1*1e6, scheme.Gap*1e6, scheme.Bound*1e6, scheme.RateBps())
	fmt.Printf("ambient alias probability: %.4f%% (paper: ~0.03%%)\n", res.AliasProbability*100)

	fmt.Printf("\nschedule for message %s (preamble %v):\n", *message, scheme.Preamble)
	t := 0.0
	for i, d := range scheme.EncodeMessage(bits) {
		fmt.Printf("  pulse %2d: t=%7.2f ms, %4.0f us\n", i, t*1e3, d*1e6)
		t += d + scheme.Gap
	}
	fmt.Printf("total airtime: %.1f ms\n", t*1e3)
}
