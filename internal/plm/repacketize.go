package plm

import (
	"fmt"
	"math"
)

// RepacketizePlan summarises a planned transmission of the PLM downlink
// when it rides on real traffic (§2.4.2: "a better way is to buffer
// existing traffic before sending it to the NIC, and then re-order or
// re-packetize to get the necessary sequence of L0s and L1s"). Each
// preamble and message bit is one burst of airtime exactly L0 or L1 (the
// durations EncodeMessage gives), filled with buffered user traffic first
// and padded with dummy bytes to the target.
type RepacketizePlan struct {
	// LeftoverBytes is buffered traffic that did not fit the message's
	// bursts and stays queued for normal transmission.
	LeftoverBytes int
	// Efficiency is the fraction of scheduled airtime carrying real user
	// traffic; 1 - Efficiency is the overhead the PLM downlink imposes.
	// "As long as the network is busy, the backscatter messages impose
	// negligible overhead on the rest of the channel."
	Efficiency float64
}

// Repacketize plans the bursts that encode message (preamble is prepended)
// while draining up to pendingBytes of buffered user traffic. rateBps is
// the PHY goodput used to convert bytes to airtime and overheadTime the
// fixed per-packet cost (preamble, headers, FCS).
func (s Scheme) Repacketize(pendingBytes int, message []byte, rateBps, overheadTime float64) (RepacketizePlan, error) {
	if err := s.Validate(); err != nil {
		return RepacketizePlan{}, err
	}
	if rateBps <= 0 {
		return RepacketizePlan{}, fmt.Errorf("plm: rate %g must be positive", rateBps)
	}
	if overheadTime < 0 || overheadTime >= s.L0 {
		return RepacketizePlan{}, fmt.Errorf("plm: per-packet overhead %g must fit inside L0=%g", overheadTime, s.L0)
	}
	if pendingBytes < 0 {
		return RepacketizePlan{}, fmt.Errorf("plm: negative pending bytes")
	}

	plan := RepacketizePlan{LeftoverBytes: pendingBytes}
	var usefulTime, totalTime float64
	for _, target := range s.EncodeMessage(message) {
		capacityBytes := int(math.Floor((target - overheadTime) * rateBps / 8))
		take := plan.LeftoverBytes
		if take > capacityBytes {
			take = capacityBytes
		}
		plan.LeftoverBytes -= take
		usefulTime += float64(take) * 8 / rateBps
		totalTime += target
	}
	if totalTime > 0 {
		plan.Efficiency = usefulTime / totalTime
	}
	return plan, nil
}
