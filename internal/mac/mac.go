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

// Config parameterises a multi-tag run.
type Config struct {
	Scheme Scheme
	// Tags is the population size.
	Tags int
	// InitialSlots is the first round's slot count (Aloha only).
	InitialSlots int
	// BitsPerSlot is the tag payload carried by one successful slot (one
	// excitation packet's capacity, ~125 bits for 6 Mbps WiFi).
	BitsPerSlot int
	// SlotTime is the airtime of one slot: excitation packet plus guard.
	SlotTime float64
	// CtrlBits is the scheduling-message length in PLM bits (preamble
	// included) and CtrlRateBps the PLM signalling rate.
	CtrlBits    int
	CtrlRateBps float64
	// InterRoundDelay is idle time the coordinator leaves between rounds so
	// the backscatter system does not hog the channel (§2.4.1).
	InterRoundDelay float64
	// TagMarginsDB is each tag's PLM envelope margin; tags miss rounds they
	// fail to decode. Nil means every tag has a strong margin (50 dB).
	TagMarginsDB []float64
	// Adaptive enables slot-count adaptation between rounds (Aloha only).
	Adaptive bool
	// RoundCorruption gives, per round, the probability that the PLM
	// downlink announcement is corrupted for every tag at once — an
	// excitation outage or a burst fade over the control channel rather
	// than one tag's weak envelope margin. Nil means announcements are only
	// lost per-tag via TagMarginsDB. Wire a fault profile in with
	// faults.Profile.RoundCorruption.
	RoundCorruption func(round int) float64
	// DesyncStall ablates the desync recovery that is the default: a tag
	// that missed the announcement normally stays silent and rejoins the
	// next round it decodes, costing only its own airtime. With DesyncStall
	// the tag instead replays its stale frame parameters — transmitting in
	// a slot drawn from the slot count it last heard. The coordinator
	// cannot attribute such a transmission to the announced round, so it
	// never delivers: it only corrupts whatever slot it lands in, and a
	// stale slot index past the current frame's end tramples the next
	// round's announcement, desynchronising everyone.
	DesyncStall bool
	// Seed drives slot choices and message losses.
	Seed int64
}

// DefaultConfig returns the calibrated Fig 17 configuration for n tags.
func DefaultConfig(scheme Scheme, n int) Config {
	return Config{
		Scheme:          scheme,
		Tags:            n,
		InitialSlots:    n,
		BitsPerSlot:     125,     // one 1500-byte 6 Mbps packet, 4 symbols/bit
		SlotTime:        2.93e-3, // 2.03 ms packet + 0.9 ms turnaround/guard
		CtrlBits:        16,
		CtrlRateBps:     plm.DefaultScheme().RateBps(),
		InterRoundDelay: 5e-3,
		Adaptive:        true,
		Seed:            1,
	}
}

// RoundStats reports one round's slot outcomes.
type RoundStats struct {
	Slots      int
	Successes  int
	Collisions int
	Idle       int
	// Corrupted marks a round whose PLM announcement no tag received
	// (RoundCorruption fired, or a stale transmission trampled it).
	Corrupted bool
	// Desynced counts tags that transmitted on stale frame parameters this
	// round (only under the DesyncStall ablation).
	Desynced int
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

// Run simulates the configured number of rounds.
func Run(cfg Config, rounds int) (Result, error) {
	if err := validate(cfg); err != nil {
		return Result{}, err
	}
	if rounds <= 0 {
		return Result{}, fmt.Errorf("mac: rounds %d must be positive", rounds)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	margins := cfg.TagMarginsDB
	if margins == nil {
		// Fig 17's tags sit directly in front of the transmitter, so the
		// PLM downlink margin is large.
		margins = make([]float64, cfg.Tags)
		for i := range margins {
			margins[i] = 50
		}
	}
	ctrlTime := float64(cfg.CtrlBits) / cfg.CtrlRateBps

	res := Result{PerTagBits: make([]int, cfg.Tags)}
	slots := cfg.InitialSlots
	if cfg.Scheme == TDM {
		slots = cfg.Tags
	}
	// lastSlots is each tag's view of the frame size — what it transmits
	// against when it missed the announcement under the DesyncStall
	// ablation. With recovery (the default) a desynced tag stays silent and
	// simply resyncs from the next announcement it decodes.
	lastSlots := make([]int, cfg.Tags)
	for i := range lastSlots {
		lastSlots[i] = slots
	}
	jamNext := false
	for r := 0; r < rounds; r++ {
		corrupted := jamNext
		jamNext = false
		if cfg.RoundCorruption != nil {
			if p := cfg.RoundCorruption(r); p > 0 && rng.Float64() < p {
				corrupted = true
			}
		}

		// Tags must decode the PLM announcement to participate.
		active := make([]int, 0, cfg.Tags)
		var desynced []int
		for i := 0; i < cfg.Tags; i++ {
			p := plm.MessageSuccessProbability(margins[i], cfg.CtrlBits)
			if !corrupted && rng.Float64() < p {
				active = append(active, i)
				lastSlots[i] = slots
			} else if cfg.DesyncStall {
				desynced = append(desynced, i)
			}
		}

		var st RoundStats
		st.Slots = slots
		st.Corrupted = corrupted
		st.Desynced = len(desynced)
		switch cfg.Scheme {
		case TDM:
			if len(desynced) == 0 {
				// Every active tag owns its dedicated slot.
				st.Successes = len(active)
				st.Idle = slots - len(active)
				for _, i := range active {
					res.PerTagBits[i] += cfg.BitsPerSlot
				}
				break
			}
			// A stalled TDM tag replays a stale schedule: its transmission
			// lands one slot late, on top of its neighbour's.
			occupancy := make([][]int, slots)
			for _, i := range active {
				occupancy[i] = append(occupancy[i], i)
			}
			for _, i := range desynced {
				occupancy[(i+1)%slots] = append(occupancy[(i+1)%slots], -1-i)
			}
			CountSlots(&st, occupancy, res.PerTagBits, cfg.BitsPerSlot)
		case FramedSlottedAloha:
			occupancy := make([][]int, slots)
			for _, i := range active {
				s := rng.Intn(slots)
				occupancy[s] = append(occupancy[s], i)
			}
			for _, i := range desynced {
				s := rng.Intn(lastSlots[i])
				if s >= slots {
					// The stale frame was longer than the live one: the
					// transmission spills past the frame's end and tramples
					// the next round's announcement.
					jamNext = true
					continue
				}
				occupancy[s] = append(occupancy[s], -1-i)
			}
			CountSlots(&st, occupancy, res.PerTagBits, cfg.BitsPerSlot)
		}
		res.Rounds = append(res.Rounds, st)
		res.Duration += ctrlTime + float64(slots)*cfg.SlotTime + cfg.InterRoundDelay

		if cfg.Scheme == FramedSlottedAloha && cfg.Adaptive {
			slots = NextSlotCount(st)
		}
	}
	return res, nil
}

// CountSlots tallies slot outcomes. Synced transmitters appear as their tag
// index and deliver when alone in a slot; stale transmissions are encoded
// as -1-index and only ever corrupt the slot they land in.
func CountSlots(st *RoundStats, occupancy [][]int, perTag []int, bitsPerSlot int) {
	for _, tagsIn := range occupancy {
		switch {
		case len(tagsIn) == 0:
			st.Idle++
		case len(tagsIn) == 1 && tagsIn[0] >= 0:
			st.Successes++
			perTag[tagsIn[0]] += bitsPerSlot
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
	if cfg.Scheme == FramedSlottedAloha && cfg.InitialSlots <= 0 {
		return fmt.Errorf("mac: initial slots %d must be positive", cfg.InitialSlots)
	}
	if cfg.BitsPerSlot <= 0 || cfg.SlotTime <= 0 {
		return fmt.Errorf("mac: slot parameters must be positive")
	}
	if cfg.CtrlBits <= 0 || cfg.CtrlRateBps <= 0 {
		return fmt.Errorf("mac: control channel parameters must be positive")
	}
	if cfg.InterRoundDelay < 0 {
		return fmt.Errorf("mac: negative inter-round delay")
	}
	if cfg.TagMarginsDB != nil && len(cfg.TagMarginsDB) != cfg.Tags {
		return fmt.Errorf("mac: %d margins for %d tags", len(cfg.TagMarginsDB), cfg.Tags)
	}
	if cfg.Scheme != FramedSlottedAloha && cfg.Scheme != TDM {
		return fmt.Errorf("mac: unknown scheme %v", cfg.Scheme)
	}
	return nil
}
