package core

import (
	"fmt"

	"repro/internal/decoder"
	"repro/internal/wifi"
)

// MultiTagResult reports a sample-level collision experiment: several tags
// backscattering the same excitation packet into the same receiver.
type MultiTagResult struct {
	Detected bool
	// PerTagBER is each tag's bit error rate against its own data, decoded
	// as if that tag were alone (the comparison the MAC uses to declare a
	// slot collided).
	PerTagBER []float64
	// MeanMismatch is the average window mismatch fraction of the decoded
	// stream: near 0/1 for a single tag, near 0.5 under collision.
	MeanMismatch float64
}

// RunCollision transmits one WiFi excitation packet and lets every tag in
// tagData backscatter it simultaneously (as happens when Aloha tags pick
// the same slot). The superposed reflections reach the receiver; the
// decoder then tries to extract each tag's bits. With a single tag this
// reduces to the normal pipeline; with two or more the phase sum destroys
// the codeword structure and every tag's BER collapses toward 0.5 — the
// physical justification for the MAC treating shared slots as lost.
func (s *Session) RunCollision(tagData [][]byte) (MultiTagResult, error) {
	p, ok := s.phy.(*wifiPHY)
	if !ok {
		return MultiTagResult{}, fmt.Errorf("core: collision study implemented for WiFi excitation")
	}
	if len(tagData) == 0 {
		return MultiTagResult{}, fmt.Errorf("core: need at least one tag")
	}
	// A collision run occupies a packet slot of the fault timeline like any
	// other transmission.
	slot := s.slot
	s.slot++
	pf := s.cfg.Faults.At(s.cfg.Seed, slot)
	if pf.Outage {
		return MultiTagResult{PerTagBER: ones(len(tagData))}, nil
	}
	psdu, seed := p.draw(s.rng, true)
	tx := wifi.Transmitter{ScramblerSeed: seed, FixedSeed: true}
	exc, err := tx.Transmit(psdu, p.rate)
	if err != nil {
		return MultiTagResult{}, err
	}

	// Each tag modulates its own copy; reflections sum at the receiver
	// (equal path gains: the worst-case collision).
	var sum = exc.Clone()
	sum.Scale(0) // start from silence at the excitation's length
	used := make([]int, len(tagData))
	for i, data := range tagData {
		mod, u, err := p.tr.Translate(exc, data)
		if err != nil {
			return MultiTagResult{}, err
		}
		used[i] = u
		if _, err := wifiShifter.Shift(mod); err != nil {
			return MultiTagResult{}, err
		}
		mod.Scale(complex(1/float64(len(tagData)), 0))
		if err := sum.Add(mod, 0); err != nil {
			return MultiTagResult{}, err
		}
	}

	cap, err := s.link(s.rng, pf).Apply(sum, 400, false)
	if err != nil {
		return MultiTagResult{}, err
	}
	pkt, err := p.receiver().Receive(cap)
	if err != nil || len(pkt.PSDU) != len(psdu) {
		return MultiTagResult{PerTagBER: ones(len(tagData))}, nil
	}

	nd := p.rate.NDBPS
	ws, _, err := decoder.DecodeWindows(p.ref(psdu)[nd:], pkt.RawBits[nd:], s.cfg.Redundancy*nd, 0.5)
	if err != nil {
		return MultiTagResult{}, err
	}
	res := MultiTagResult{Detected: true, PerTagBER: make([]float64, len(tagData))}
	var mism float64
	for _, w := range ws {
		mism += w.MismatchFraction
	}
	if len(ws) > 0 {
		res.MeanMismatch = mism / float64(len(ws))
	}
	decoded := decoder.Bits(ws)
	for i, data := range tagData {
		n := used[i]
		if len(decoded) < n {
			n = len(decoded)
		}
		if n == 0 {
			res.PerTagBER[i] = 1
			continue
		}
		e, _, _ := decoder.BER(data[:n], decoded[:n])
		res.PerTagBER[i] = float64(e) / float64(n)
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
