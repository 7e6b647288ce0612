package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dsss"
	"repro/internal/runner"
	"repro/internal/signal"
)

// HitchHikeResult reports a sample-level run of the HitchHike [25]
// baseline on one 802.11b packet.
type HitchHikeResult struct {
	TagBitsPerPacket int
	PacketSeconds    float64
	BitErrors        int
}

// hitchhikeBlockBits is the DBPSK bits spanned by one HitchHike tag bit.
const hitchhikeBlockBits = 4

// RunHitchHikePacket backscatters tag bits onto one 802.11b DSSS packet
// using HitchHike's codeword translation: the tag holds the reflected
// phase flipped during tag-1 blocks. Because DBPSK encodes data in phase
// *transitions*, a flip run toggles exactly the decoded bits at its two
// edges, so the XOR of excitation and backscatter streams is the
// derivative of the tag sequence; a running XOR recovers the tag bits.
func RunHitchHikePacket(payloadBytes int, tagBits []byte) (HitchHikeResult, error) {
	if payloadBytes <= 0 {
		return HitchHikeResult{}, fmt.Errorf("experiments: payload %d must be positive", payloadBytes)
	}
	tx := dsss.NewTransmitter()
	payload := make([]byte, payloadBytes)
	for i := range payload {
		payload[i] = byte(i*37 + 11)
	}
	exc, err := tx.Transmit(payload)
	if err != nil {
		return HitchHikeResult{}, err
	}
	// The reference is the scrambled over-the-air stream; the backhaul can
	// reconstruct it from receiver 1's decode because the 802.11b
	// scrambler is self-synchronising.
	ref, err := tx.AirBits(payload)
	if err != nil {
		return HitchHikeResult{}, err
	}

	// The tag skips the preamble+SFD+length header (it needs the receiver
	// to lock), then holds its flip state per block of data bits.
	const hdr = dsss.PreambleBits + 32
	capacity := (len(ref) - hdr) / hitchhikeBlockBits
	used := len(tagBits)
	if used > capacity {
		used = capacity
	}

	mod := exc.Clone()
	for i := 0; i < used; i++ {
		if tagBits[i]&1 == 0 {
			continue
		}
		// Data bit k rides on symbol k+1 (symbol 0 is the phase reference).
		lo := (hdr + i*hitchhikeBlockBits + 1) * dsss.BitSamples
		hi := (hdr + (i+1)*hitchhikeBlockBits + 1) * dsss.BitSamples
		for s := lo; s < hi && s < len(mod.Samples); s++ {
			mod.Samples[s] = -mod.Samples[s]
		}
	}

	cap := signal.New(dsss.SampleRate, len(mod.Samples)+200)
	copy(cap.Samples[100:], mod.Samples)
	rx := dsss.NewReceiver()
	start, q := rx.Detect(cap)
	if start < 0 || q < rx.DetectionThreshold {
		return HitchHikeResult{}, fmt.Errorf("experiments: hitchhike packet not detected")
	}
	raw := rx.RawBitsAt(cap, start, len(ref))
	if len(raw) < len(ref) {
		return HitchHikeResult{}, fmt.Errorf("experiments: hitchhike capture truncated")
	}

	// Edge indicators at block starts, then a running XOR recovers the
	// tag's flip state per block.
	state := byte(0)
	errors := 0
	for i := 0; i < used; i++ {
		k := hdr + i*hitchhikeBlockBits
		if raw[k] != ref[k] {
			state ^= 1
		}
		if state != tagBits[i]&1 {
			errors++
		}
	}

	duration := float64(len(ref)+1) / dsss.BitRate
	return HitchHikeResult{
		TagBitsPerPacket: used,
		PacketSeconds:    duration,
		BitErrors:        errors,
	}, nil
}

// BaselinePoint compares the two systems at one legacy-traffic share.
type BaselinePoint struct {
	// LegacyAirtimeFraction is the share of channel airtime carried by
	// 802.11b packets; the rest is 802.11g/n OFDM.
	LegacyAirtimeFraction float64
	FreeRiderKbps         float64
	HitchHikeKbps         float64
}

// String renders the point as a bench-log row.
func (p BaselinePoint) String() string {
	return fmt.Sprintf("legacy=%5.1f%% freerider=%6.1fkbps hitchhike=%6.1fkbps",
		p.LegacyAirtimeFraction*100, p.FreeRiderKbps, p.HitchHikeKbps)
}

// BaselineAvailability quantifies the paper's motivation (§1): HitchHike
// only rides 802.11b packets, and modern channels carry almost none. Both
// systems' in-packet tag rates are measured at sample level; the sweep
// then scales them by each system's usable share of a busy channel's
// airtime. FreeRider wins whenever less than ~1/5 of airtime is legacy
// 802.11b — i.e. essentially everywhere today.
func BaselineAvailability(opt Options) ([]BaselinePoint, error) {
	sp := opt.Obs.Start("baseline")
	defer sp.End()
	// FreeRider's in-packet tag rate from a close-range session.
	cfg := core.DefaultConfig(core.WiFi, 3)
	cfg.Link.FadingK = 0
	cfg.Seed = runner.DeriveSeed(opt.Seed, "baseline.freerider")
	s, err := core.NewSession(cfg)
	if err != nil {
		return nil, err
	}
	frPerPacket := float64(s.Capacity())
	frPacketTime := s.PacketDuration()

	// HitchHike's in-packet tag rate, measured end to end with the packet
	// filled to capacity.
	tagBits := make([]byte, 4096)
	for i := range tagBits {
		tagBits[i] = byte(i>>1) & 1
	}
	hh, err := RunHitchHikePacket(1000, tagBits)
	if err != nil {
		return nil, err
	}
	if hh.BitErrors > 0 {
		return nil, fmt.Errorf("experiments: hitchhike clean-channel run had %d bit errors", hh.BitErrors)
	}

	const busy = 0.8 // overall channel airtime occupancy
	var out []BaselinePoint
	legacyShares := []float64{1.0, 0.5, 0.2, 0.1, 0.05, 0.01, 0.0}
	sp.AddPoints(int64(len(legacyShares)))
	for _, legacy := range legacyShares {
		fr := busy * (1 - legacy) * frPerPacket / frPacketTime / 1e3
		hhKbps := busy * legacy * float64(hh.TagBitsPerPacket) / hh.PacketSeconds / 1e3
		out = append(out, BaselinePoint{
			LegacyAirtimeFraction: legacy,
			FreeRiderKbps:         fr,
			HitchHikeKbps:         hhKbps,
		})
	}
	return out, nil
}
