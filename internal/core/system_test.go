package core

import (
	"bytes"
	"testing"

	"repro/internal/firmware"
	"repro/internal/plm"
	"repro/internal/signal"
	"repro/internal/tag"
)

// TestFullSystemDownlinkToUplink drives the complete FreeRider loop at
// sample level: the coordinator announces a round over PLM (real RF bursts
// at the tag antenna), the tag's envelope detector times the pulses, the
// firmware scans its bit buffer, arms a random slot, and when that slot
// arrives the tag backscatters its queued data over a real WiFi excitation
// packet, which the adjacent-channel receiver decodes.
func TestFullSystemDownlinkToUplink(t *testing.T) {
	scheme := plm.DefaultScheme()
	const slots = 4
	message := []byte{1, 1, 0, 1, 0, 1, 0, 0, 1, 1}

	// --- Downlink: synthesise the announcement as RF bursts. ---
	payload, err := firmware.EncodeAnnouncement(slots)
	if err != nil {
		t.Fatal(err)
	}
	durations := scheme.EncodeMessage(payload)
	const rate = 2e6
	var total float64
	for _, d := range durations {
		total += d + scheme.Gap
	}
	rf := signal.New(rate, int(total*rate)+4000)
	amp := signal.AmplitudeForPowerDBm(-35) // strong: tag near transmitter
	pos := 1000
	for _, d := range durations {
		n := int(d * rate)
		for i := 0; i < n; i++ {
			rf.Samples[pos+i] = complex(amp, 0)
		}
		pos += n + int(scheme.Gap*rate)
	}

	pulses := tag.DetectEnvelope(rf)
	if len(pulses) != len(durations) {
		t.Fatalf("envelope detector found %d pulses, want %d", len(pulses), len(durations))
	}

	fw, err := firmware.New(scheme, 7)
	if err != nil {
		t.Fatal(err)
	}
	fw.Enqueue(message)
	for _, p := range pulses {
		fw.OnPulse(p)
	}
	if fw.State() != firmware.Armed {
		t.Fatal("firmware did not arm from the RF downlink")
	}

	// --- Uplink: run the round's slots; the armed one backscatters. ---
	cfg := DefaultConfig(WiFi, 5)
	cfg.Link.FadingK = 0
	session, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var decoded []byte
	fires := 0
	for idx := 0; idx < slots; idx++ {
		data, ok := fw.OnSlot(idx)
		if !ok {
			continue
		}
		fires++
		pr, err := session.RunPacket(data)
		if err != nil {
			t.Fatal(err)
		}
		if !pr.Decoded {
			t.Fatal("armed slot's backscatter packet not decoded")
		}
		decoded = pr.DecodedTag[:len(data)]
	}
	if fires != 1 {
		t.Fatalf("tag fired %d times, want 1", fires)
	}
	if !bytes.Equal(decoded, message) {
		t.Fatalf("system decoded %v, want %v", decoded, message)
	}
}
