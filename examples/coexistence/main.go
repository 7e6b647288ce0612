// Coexistence: reproduces the §4.4 question a deployment engineer asks
// before installing FreeRider in an office — does backscatter hurt my
// WiFi, and does my WiFi hurt backscatter? The example runs both
// directions of the study for all three excitation radios and prints the
// throughput quantiles.
package main

import (
	"fmt"
	"log"

	"repro/internal/coexist"
	"repro/internal/core"
	"repro/internal/stats"
)

func main() {
	excitations := []core.Radio{core.WiFi, core.ZigBee, core.Bluetooth}

	fmt.Println("does backscatter hurt the WiFi network? (Fig 15)")
	for _, exc := range excitations {
		cfg := coexist.DefaultConfig(exc)
		without, err := coexist.WiFiThroughput(cfg, false)
		if err != nil {
			log.Fatal(err)
		}
		with, err := coexist.WiFiThroughput(cfg, true)
		if err != nil {
			log.Fatal(err)
		}
		mw, _ := stats.Median(without)
		mt, _ := stats.Median(with)
		fmt.Printf("  tag riding %-15v wifi median: %.1f -> %.1f Mbps (Δ %+.2f)\n",
			exc, mw, mt, mt-mw)
	}

	fmt.Println("\ndoes WiFi traffic hurt backscatter? (Fig 16)")
	for _, exc := range excitations {
		cfg := coexist.DefaultConfig(exc)
		absent, err := coexist.BackscatterThroughput(cfg, false)
		if err != nil {
			log.Fatal(err)
		}
		present, err := coexist.BackscatterThroughput(cfg, true)
		if err != nil {
			log.Fatal(err)
		}
		ma, _ := stats.Median(absent)
		mp, _ := stats.Median(present)
		qa, _ := stats.Quantile(absent, 0.1)
		qp, _ := stats.Quantile(present, 0.1)
		fmt.Printf("  %-15v median %.1f -> %.1f kbps, 10th percentile %.1f -> %.1f kbps\n",
			exc, ma, mp, qa, qp)
	}

	fmt.Println("\nconclusion: the tag is invisible to WiFi; WiFi only dents the")
	fmt.Println("tail of WiFi-excited backscatter (the wideband receiver admits")
	fmt.Println("more adjacent-channel leakage than ZigBee/Bluetooth's filters).")
}
