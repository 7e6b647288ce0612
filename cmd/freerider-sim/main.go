// Command freerider-sim runs one backscatter link end to end at sample
// level and reports throughput, tag BER, packet loss and RSSI.
//
// Usage:
//
//	freerider-sim [-radio wifi|zigbee|bluetooth] [-distance M]
//	              [-txdistance M] [-nlos] [-packets N] [-redundancy R]
//	              [-payload BYTES] [-seed N] [-faults PROFILE]
//
// -faults injects a deterministic fault profile into the link: a preset
// name (see freerider.FaultProfileNames), optionally intensity-scaled
// ("chaos@0.5"), or a custom "burst:p01=0.1,p10=0.3,loss=12;..." spec.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro"
)

func main() {
	radio := flag.String("radio", "wifi", "excitation radio: wifi, zigbee, or bluetooth")
	distance := flag.Float64("distance", 5, "tag-to-receiver distance in metres")
	txDistance := flag.Float64("txdistance", 1, "transmitter-to-tag distance in metres")
	nlos := flag.Bool("nlos", false, "use the through-the-wall NLOS deployment")
	packets := flag.Int("packets", 20, "excitation packets to run")
	redundancy := flag.Int("redundancy", 0, "PHY units per tag bit (0 = radio default)")
	payload := flag.Int("payload", 0, "excitation payload bytes (0 = radio default)")
	seed := flag.Int64("seed", 1, "RNG seed")
	faultSpec := flag.String("faults", "none",
		"fault profile: "+strings.Join(freerider.FaultProfileNames(), ", ")+
			", name@intensity, or a custom burst:...;outage:... spec")
	flag.Parse()

	r, err := freerider.ParseRadio(*radio)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	profile, err := freerider.ParseFaultProfile(*faultSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	cfg := freerider.DefaultConfig(r, *distance)
	cfg.Link.TxToTag = *txDistance
	cfg.Seed = *seed
	cfg.Faults = profile
	if *nlos {
		cfg.SetNLOS()
	}
	if *redundancy > 0 {
		cfg.Redundancy = *redundancy
	}
	if *payload > 0 {
		cfg.PayloadSize = *payload
	}

	s, err := freerider.NewSession(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("radio:           %v\n", r)
	fmt.Printf("deployment:      %s, tx-to-tag %.1f m, tag-to-rx %.1f m\n",
		cfg.Link.Deployment.Name, cfg.Link.TxToTag, cfg.Link.TagToRx)
	fmt.Printf("link budget:     RSSI %.1f dBm, noise floor %.1f dBm, SNR %.1f dB\n",
		cfg.Link.BackscatterRSSI(), cfg.Link.NoiseFloor, cfg.Link.SNRdB())
	fmt.Printf("packet:          %d B payload, %.0f us airtime, %d tag bits\n",
		cfg.PayloadSize, s.PacketDuration()*1e6, s.Capacity())
	if profile != nil {
		fmt.Printf("faults:          %s\n", profile)
	}

	res, err := s.Run(*packets)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("packets:         %d sent, %d lost (%.0f%%)\n",
		res.Packets, res.PacketsLost, res.LossRate()*100)
	fmt.Printf("tag throughput:  %.1f kbps\n", res.ThroughputBps()/1e3)
	fmt.Printf("tag BER:         %.2e (%d errors over %d decoded bits)\n",
		res.BER(), res.BitErrors, res.TagBitsDecoded)
}
