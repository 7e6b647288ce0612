// Tagloop walks through one complete FreeRider control-and-data cycle the
// way the tag's electronics experience it (§2.4.1): the coordinator's PLM
// announcement arrives as raw RF bursts, the envelope detector times them,
// the firmware state machine finds the preamble in its bit buffer and arms
// a random slot, and when that slot comes up the tag backscatters its
// queued reading over a real WiFi excitation packet.
package main

import (
	"fmt"
	"log"

	"repro"
	"repro/internal/firmware"
	"repro/internal/plm"
	"repro/internal/signal"
	"repro/internal/tag"
)

func main() {
	scheme := plm.DefaultScheme()
	const slots = 6
	reading := freerider.BitsFromBytes([]byte{0x42, 0x17}) // a sensor value

	// --- The coordinator announces a 6-slot round over PLM. ---
	payload, err := firmware.EncodeAnnouncement(slots)
	if err != nil {
		log.Fatal(err)
	}
	durations := scheme.EncodeMessage(payload)
	fmt.Printf("coordinator: announcing a %d-slot round (%d PLM pulses, %.1f ms)\n",
		slots, len(durations), airtime(durations, scheme)*1e3)

	// Render the announcement as RF bursts at the tag antenna.
	const rate = 2e6
	rf := signal.New(rate, int(airtime(durations, scheme)*rate)+4000)
	amp := signal.AmplitudeForPowerDBm(-35)
	pos := 1000
	for _, d := range durations {
		for i := 0; i < int(d*rate); i++ {
			rf.Samples[pos+i] = complex(amp, 0)
		}
		pos += int((d + scheme.Gap) * rate)
	}

	// --- The tag hears it through its envelope detector. ---
	pulses := tag.DetectEnvelope(rf)
	fmt.Printf("tag: envelope detector timed %d pulses\n", len(pulses))

	fw, err := firmware.New(scheme, 99)
	if err != nil {
		log.Fatal(err)
	}
	fw.Enqueue(reading)
	for _, p := range pulses {
		fw.OnPulse(p)
	}
	if fw.State() != firmware.Armed {
		log.Fatal("tag failed to arm from the announcement")
	}
	fmt.Printf("tag: armed for slot %d of %d\n", fw.ChosenSlot(), slots)

	// --- The round's slots: the armed one backscatters for real. ---
	cfg := freerider.DefaultConfig(freerider.WiFi, 5)
	cfg.Link.FadingK = 0
	session, err := freerider.NewSession(cfg)
	if err != nil {
		log.Fatal(err)
	}
	for idx := 0; idx < slots; idx++ {
		data, fire := fw.OnSlot(idx)
		if !fire {
			fmt.Printf("slot %d: idle\n", idx)
			continue
		}
		pr, err := session.RunPacket(data)
		if err != nil {
			log.Fatal(err)
		}
		if !pr.Decoded {
			log.Fatal("backscatter packet lost")
		}
		decoded, err := freerider.BytesFromBits(pr.DecodedTag[:len(data)])
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("slot %d: tag backscattered %d bits over a %d-byte WiFi packet -> reading %#02x %#02x\n",
			idx, len(data), cfg.PayloadSize, decoded[0], decoded[1])
	}
	fmt.Printf("tag: back to %v, queue drained (%d pending)\n", fw.State() == firmware.Idle, fw.QueueLen())
}

func airtime(durations []float64, s plm.Scheme) float64 {
	var t float64
	for _, d := range durations {
		t += d + s.Gap
	}
	return t
}
