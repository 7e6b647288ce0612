package core

import (
	"fmt"

	"repro/internal/signal"
	"repro/internal/waveform"
)

// MultiTagResult reports a sample-level collision experiment: several tags
// backscattering the same excitation packet into the same receiver.
type MultiTagResult struct {
	Detected bool
	// PerTagBER is each tag's bit error rate against its own data, decoded
	// as if that tag were alone (the comparison the MAC uses to declare a
	// slot collided).
	PerTagBER []float64
}

// RunCollision transmits one WiFi excitation packet and lets every tag in
// tagData backscatter it simultaneously (as happens when Aloha tags pick
// the same slot). The superposed reflections reach the receiver; the
// decoder then tries to extract each tag's bits. With a single tag this
// is exactly RunPacket; with two or more the phase sum destroys the
// codeword structure and every tag's BER collapses toward 0.5 — the
// physical justification for the MAC treating shared slots as lost. Each
// tag's reflection is synthesised, and the sum received and decoded, by
// the packet pipeline RunPacket runs, so the receiver mode, the quaternary
// scheme and the window threshold apply here too.
func (s *Session) RunCollision(tagData [][]byte) (MultiTagResult, error) {
	if s.cfg.Radio != WiFi {
		return MultiTagResult{}, fmt.Errorf("core: collision study implemented for WiFi excitation")
	}
	if len(tagData) == 0 {
		return MultiTagResult{}, fmt.Errorf("core: need at least one tag")
	}
	// A collision run occupies a packet slot of the fault timeline like any
	// other transmission, and is lost before any draw where runPacket's is:
	// no excitation (outage) or no charge to reflect with (brownout).
	slot := s.slot
	s.slot++
	pf := s.cfg.Faults.At(s.cfg.Seed, slot)
	if pf.Outage || pf.SkipReflection {
		return MultiTagResult{PerTagBER: ones(len(tagData))}, nil
	}
	psdu, seed := s.phy.draw(s.rng, true)

	// Each tag modulates its own copy; reflections sum at the receiver
	// (equal path gains: the worst-case collision).
	var sum *waveform.Entry
	used := make([]int, len(tagData))
	for i, data := range tagData {
		e, err := s.phy.synthesize(psdu, data, seed)
		if err != nil {
			return MultiTagResult{}, err
		}
		used[i] = e.Used
		e.Wave.Scale(complex(1/float64(len(tagData)), 0))
		if sum == nil {
			// Silence at the excitation's length. The decode references
			// depend only on the excitation, so the first tag's serve all.
			sum = &waveform.Entry{Wave: signal.New(e.Wave.Rate, len(e.Wave.Samples)), Ref: e.Ref, CodedRef: e.CodedRef}
		}
		for j, v := range e.Wave.Samples {
			sum.Wave.Samples[j] += v
		}
		if s.cfg.Waveforms == nil {
			s.phy.release(e)
		}
	}
	sum.MeanPower = sum.Wave.MeanPower()

	rx, _, err := s.transmit(sum, s.rng, pf)
	if err != nil {
		return MultiTagResult{}, err
	}
	if rx.obs == nil {
		return MultiTagResult{PerTagBER: ones(len(tagData))}, nil
	}
	res := MultiTagResult{Detected: true, PerTagBER: make([]float64, len(tagData))}
	for i, data := range tagData {
		pr, err := s.decode(PacketResult{TagBits: used[i]}, rx, data)
		if err != nil {
			return MultiTagResult{}, err
		}
		res.PerTagBER[i] = 1
		if n := len(pr.DecodedTag); n > 0 {
			res.PerTagBER[i] = float64(pr.BitErrors) / float64(n)
		}
	}
	return res, nil
}

func ones(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 1
	}
	return out
}
