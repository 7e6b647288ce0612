// Package sim runs the multi-tag FreeRider network as a discrete-event
// simulation built from the real components: the coordinator encodes each
// round's announcement with the PLM scheme, every tag receives the pulses
// through its own lossy envelope-detector model and runs the actual
// firmware state machine (internal/firmware), armed tags contend in slots,
// and the coordinator adapts its frame size from the observed collisions.
// Unlike internal/mac — which abstracts announcement delivery into a
// message-success probability — here a missed *pulse* silently corrupts
// the tag's bit buffer and the preamble match fails downstream, so control
// losses emerge from the mechanism the paper actually builds.
package sim

import (
	"fmt"
	"math/rand"

	"repro/internal/firmware"
	"repro/internal/mac"
	"repro/internal/plm"
	"repro/internal/tag"
)

// Run simulates the Fig 17 setup — the default PLM scheme, mac's slot
// timing and tag margin, and a first frame of one slot per tag — for the
// given number of rounds; seed drives pulse losses and the tags' slot
// choices. It reuses the mac package's result type and round accounting
// (mac.CountSlots, mac.NextSlotCount) so the two models are directly
// comparable.
func Run(tags, rounds int, seed int64) (mac.Result, error) {
	if tags <= 0 || rounds <= 0 {
		return mac.Result{}, fmt.Errorf("sim: tags %d and rounds %d must be positive", tags, rounds)
	}
	scheme := plm.DefaultScheme()
	rng := rand.New(rand.NewSource(seed))
	fws := make([]*firmware.Tag, tags)
	for i := range fws {
		fw, err := firmware.New(scheme, seed+int64(i)+1)
		if err != nil {
			return mac.Result{}, err
		}
		fws[i] = fw
	}
	heard := plm.PulseSuccessProbability(mac.TagMarginDB)

	res := mac.Result{PerTagBits: make([]int, tags)}
	slots := tags
	for r := 0; r < rounds; r++ {
		if slots > 255 {
			slots = 255
		}
		payload, err := firmware.EncodeAnnouncement(slots)
		if err != nil {
			return mac.Result{}, err
		}
		durations := scheme.EncodeMessage(payload)
		var announceTime float64
		for _, d := range durations {
			announceTime += d + scheme.Gap
		}

		// Deliver pulses tag by tag; each pulse independently survives its
		// envelope margin. A lost pulse simply never reaches the firmware
		// (the bit buffer desynchronises and the preamble match fails).
		for _, fw := range fws {
			if fw.QueueLen() == 0 {
				fw.Enqueue(make([]byte, mac.BitsPerSlot))
			}
			for _, d := range durations {
				if rng.Float64() < heard {
					fw.OnPulse(tag.Pulse{Duration: d})
				}
			}
		}

		// Resolve slot occupancy.
		st := mac.RoundStats{Slots: slots}
		occupancy := make([][]int, slots)
		for idx := 0; idx < slots; idx++ {
			for i, fw := range fws {
				if _, fired := fw.OnSlot(idx); fired {
					occupancy[idx] = append(occupancy[idx], i)
				}
			}
		}
		mac.CountSlots(&st, occupancy, res.PerTagBits)
		res.Rounds = append(res.Rounds, st)
		res.Duration += announceTime + float64(slots)*mac.SlotTime + mac.InterRoundDelay
		slots = mac.NextSlotCount(st)
	}
	return res, nil
}
