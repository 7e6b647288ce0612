// Package mac implements FreeRider's multi-tag media access (§2.4): a
// Framed Slotted Aloha scheme in which the excitation transmitter acts as
// the central coordinator, announcing each round over the PLM downlink.
// Tags that decode the announcement pick a random slot and backscatter one
// excitation packet's worth of data in it; collisions destroy both
// transmissions. The coordinator adapts the slot count between rounds —
// more slots after collisions, fewer after idles — and a TDM scheme (every
// tag owns a slot) is included as the collision-free baseline the paper
// quotes for its asymptote comparison (~18 kbps Aloha vs ~40 kbps TDM).
package mac

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/plm"
	"repro/internal/stats"
)

// Scheme selects the coordination discipline.
type Scheme int

// Available MAC schemes.
const (
	FramedSlottedAloha Scheme = iota
	TDM
)

// String names the scheme.
func (s Scheme) String() string {
	switch s {
	case FramedSlottedAloha:
		return "framed-slotted-aloha"
	case TDM:
		return "tdm"
	}
	return fmt.Sprintf("Scheme(%d)", int(s))
}

// The calibrated Fig 17 slot and control-channel timing, shared with the
// firmware-level model in internal/sim.
const (
	// BitsPerSlot is the tag payload carried by one successful slot: one
	// 1500-byte 6 Mbps WiFi packet at 4 symbols per tag bit.
	BitsPerSlot = 125
	// SlotTime is the airtime of one slot: the 2.03 ms excitation packet
	// plus 0.9 ms of turnaround and guard, seconds.
	SlotTime = 2.93e-3
	// CtrlBits is the scheduling message's length in PLM bits, preamble
	// included.
	CtrlBits = 16
	// CtrlRateBps is the PLM signalling rate, plm.DefaultScheme().RateBps():
	// a 1 ms mean pulse plus its 0.8 ms gap per bit.
	CtrlRateBps float64 = 1 / 1.8e-3
	// InterRoundDelay is the idle time the coordinator leaves between
	// rounds so the backscatter system does not hog the channel (§2.4.1),
	// seconds.
	InterRoundDelay = 5e-3
)

// TagMarginDB is every tag's PLM envelope margin: Fig 17's tags sit
// directly in front of the transmitter, so the downlink margin is large.
const TagMarginDB = 50

// Config parameterises a multi-tag run.
type Config struct {
	Scheme Scheme
	// Tags is the population size, and the first Aloha round's slot count.
	Tags int
	// RoundCorruption gives, per round, the probability that the PLM
	// downlink announcement is corrupted for every tag at once — an
	// excitation outage or a burst fade over the control channel. Nil
	// means announcements are only lost per tag, through the envelope
	// margin. Wire a fault profile in with faults.Profile.RoundCorruption.
	RoundCorruption func(round int) float64
	// Seed drives slot choices and message losses.
	Seed int64
}

// DefaultConfig returns the calibrated Fig 17 configuration for n tags.
func DefaultConfig(scheme Scheme, n int) Config {
	return Config{Scheme: scheme, Tags: n, Seed: 1}
}

// RoundStats reports one round's slot outcomes.
type RoundStats struct {
	Slots      int
	Successes  int
	Collisions int
	Idle       int
	// Corrupted marks a round whose PLM announcement no tag received
	// (RoundCorruption fired).
	Corrupted bool
}

// Result aggregates a run.
type Result struct {
	Rounds     []RoundStats
	PerTagBits []int   // bits delivered by each tag
	Duration   float64 // total elapsed time, seconds
}

// TotalBits sums delivered bits across tags.
func (r Result) TotalBits() int {
	t := 0
	for _, b := range r.PerTagBits {
		t += b
	}
	return t
}

// AggregateThroughputBps is the whole population's delivered rate.
func (r Result) AggregateThroughputBps() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(r.TotalBits()) / r.Duration
}

// FairnessIndex is Jain's index over per-tag delivered bits (Fig 17b).
func (r Result) FairnessIndex() (float64, error) {
	xs := make([]float64, len(r.PerTagBits))
	for i, b := range r.PerTagBits {
		xs[i] = float64(b)
	}
	return stats.JainIndex(xs)
}

// Run simulates the configured number of rounds. A tag that misses an
// announcement stays silent and rejoins the next round it decodes.
func Run(cfg Config, rounds int) (Result, error) {
	if err := validate(cfg); err != nil {
		return Result{}, err
	}
	if rounds <= 0 {
		return Result{}, fmt.Errorf("mac: rounds %d must be positive", rounds)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	heard := plm.MessageSuccessProbability(TagMarginDB, CtrlBits)

	res := Result{PerTagBits: make([]int, cfg.Tags)}
	slots := cfg.Tags
	for r := 0; r < rounds; r++ {
		corrupted := false
		if cfg.RoundCorruption != nil {
			if p := cfg.RoundCorruption(r); p > 0 && rng.Float64() < p {
				corrupted = true
			}
		}

		// Tags must decode the PLM announcement to participate.
		active := make([]int, 0, cfg.Tags)
		for i := 0; i < cfg.Tags; i++ {
			if !corrupted && rng.Float64() < heard {
				active = append(active, i)
			}
		}

		st := RoundStats{Slots: slots, Corrupted: corrupted}
		switch cfg.Scheme {
		case TDM:
			// Every active tag owns its dedicated slot.
			st.Successes = len(active)
			st.Idle = slots - len(active)
			for _, i := range active {
				res.PerTagBits[i] += BitsPerSlot
			}
		case FramedSlottedAloha:
			occupancy := make([][]int, slots)
			for _, i := range active {
				s := rng.Intn(slots)
				occupancy[s] = append(occupancy[s], i)
			}
			CountSlots(&st, occupancy, res.PerTagBits)
		}
		res.Rounds = append(res.Rounds, st)
		res.Duration += CtrlBits/CtrlRateBps + float64(slots)*SlotTime + InterRoundDelay

		if cfg.Scheme == FramedSlottedAloha {
			slots = NextSlotCount(st)
		}
	}
	return res, nil
}

// CountSlots tallies slot outcomes from each slot's transmitting tags: a
// tag alone in its slot delivers BitsPerSlot.
func CountSlots(st *RoundStats, occupancy [][]int, perTag []int) {
	for _, tagsIn := range occupancy {
		switch len(tagsIn) {
		case 0:
			st.Idle++
		case 1:
			st.Successes++
			perTag[tagsIn[0]] += BitsPerSlot
		default:
			st.Collisions++
		}
	}
}

// NextSlotCount applies Schoute's backlog estimate: each collision hides
// ~2.39 tags on average, so the next frame sizes itself to the estimated
// number of contenders.
func NextSlotCount(st RoundStats) int {
	est := int(math.Round(2.39*float64(st.Collisions) + float64(st.Successes)))
	if est < 2 {
		est = 2
	}
	if est > 256 {
		est = 256
	}
	return est
}

func validate(cfg Config) error {
	if cfg.Tags <= 0 {
		return fmt.Errorf("mac: tags %d must be positive", cfg.Tags)
	}
	if cfg.Scheme != FramedSlottedAloha && cfg.Scheme != TDM {
		return fmt.Errorf("mac: unknown scheme %v", cfg.Scheme)
	}
	return nil
}
