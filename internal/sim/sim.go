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

// Config parameterises the network.
type Config struct {
	// Tags is the population size.
	Tags int
	// BitsPerSlot is the tag payload per successful slot.
	BitsPerSlot int
	// SlotTime is one slot's airtime (excitation packet + guard).
	SlotTime float64
	// Scheme is the PLM downlink alphabet.
	Scheme plm.Scheme
	// InterRoundDelay is coordinator idle time between rounds.
	InterRoundDelay float64
	// InitialSlots is the first frame size.
	InitialSlots int
	// MarginsDB is each tag's envelope margin; nil means 50 dB for all.
	MarginsDB []float64
	// Adaptive enables Schoute frame adaptation.
	Adaptive bool
	// Seed drives pulse losses and the tags' slot choices.
	Seed int64
}

// DefaultConfig mirrors the Fig 17 setup.
func DefaultConfig(n int) Config {
	return Config{
		Tags:            n,
		BitsPerSlot:     125,
		SlotTime:        2.93e-3,
		Scheme:          plm.DefaultScheme(),
		InterRoundDelay: 5e-3,
		InitialSlots:    n,
		Adaptive:        true,
		Seed:            1,
	}
}

// Run simulates the configured number of rounds, reusing the mac package's
// result type and round accounting (mac.CountSlots, mac.NextSlotCount) so
// the two models are directly comparable.
func Run(cfg Config, rounds int) (mac.Result, error) {
	if cfg.Tags <= 0 || rounds <= 0 {
		return mac.Result{}, fmt.Errorf("sim: tags %d and rounds %d must be positive", cfg.Tags, rounds)
	}
	if cfg.BitsPerSlot <= 0 || cfg.SlotTime <= 0 || cfg.InitialSlots <= 0 {
		return mac.Result{}, fmt.Errorf("sim: slot parameters must be positive")
	}
	if err := cfg.Scheme.Validate(); err != nil {
		return mac.Result{}, err
	}
	if cfg.MarginsDB != nil && len(cfg.MarginsDB) != cfg.Tags {
		return mac.Result{}, fmt.Errorf("sim: %d margins for %d tags", len(cfg.MarginsDB), cfg.Tags)
	}

	margins := cfg.MarginsDB
	if margins == nil {
		margins = make([]float64, cfg.Tags)
		for i := range margins {
			margins[i] = 50
		}
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	tags := make([]*firmware.Tag, cfg.Tags)
	for i := range tags {
		fw, err := firmware.New(cfg.Scheme, cfg.Seed+int64(i)+1)
		if err != nil {
			return mac.Result{}, err
		}
		tags[i] = fw
	}

	res := mac.Result{PerTagBits: make([]int, cfg.Tags)}
	slots := cfg.InitialSlots
	for r := 0; r < rounds; r++ {
		if slots > 255 {
			slots = 255
		}
		payload, err := firmware.EncodeAnnouncement(slots)
		if err != nil {
			return mac.Result{}, err
		}
		durations := cfg.Scheme.EncodeMessage(payload)
		var announceTime float64
		for _, d := range durations {
			announceTime += d + cfg.Scheme.Gap
		}

		// Deliver pulses tag by tag; each pulse independently survives its
		// envelope margin. A lost pulse simply never reaches the firmware
		// (the bit buffer desynchronises and the preamble match fails).
		for i, fw := range tags {
			if fw.QueueLen() == 0 {
				fw.Enqueue(make([]byte, cfg.BitsPerSlot))
			}
			p := plm.PulseSuccessProbability(margins[i])
			for _, d := range durations {
				if rng.Float64() < p {
					fw.OnPulse(tag.Pulse{Duration: d})
				}
			}
		}

		// Resolve slot occupancy.
		var st mac.RoundStats
		st.Slots = slots
		occupancy := make([][]int, slots)
		for idx := 0; idx < slots; idx++ {
			for i, fw := range tags {
				if _, fired := fw.OnSlot(idx); fired {
					occupancy[idx] = append(occupancy[idx], i)
				}
			}
		}
		mac.CountSlots(&st, occupancy, res.PerTagBits, cfg.BitsPerSlot)
		res.Rounds = append(res.Rounds, st)
		res.Duration += announceTime + float64(slots)*cfg.SlotTime + cfg.InterRoundDelay

		if cfg.Adaptive {
			slots = mac.NextSlotCount(st)
		}
	}
	return res, nil
}
