// Package faults is the deterministic fault-injection subsystem: a
// catalogue of composable time-varying channel and tag impairments that
// turn the repo's benign stationary links into the bursty, interference-
// dominated conditions WiFi backscatter meets in the wild (GuardRider,
// arXiv:1912.06493) and the excitation-outage regimes codeword-translation
// links are fragile to (Double-decker, arXiv:2408.16280).
//
// A Profile bundles up to five impairment processes:
//
//   - Burst: a Gilbert–Elliott two-state Markov chain whose bad state adds
//     interference-equivalent loss (burst interference / deep fade).
//   - Drift: a random walk of residual CFO on top of the link's static CFO.
//   - Outage: periodic excitation-transmitter outage windows (the carrier
//     disappears; nothing to ride on, nothing to harvest).
//   - Brownout: a harvested-energy reservoir at the tag; when it runs dry
//     the tag skips a reflection or truncates one mid-packet.
//   - Impulse: impulsive co-channel noise (sparse high-power samples).
//
// Everything is seed-derived via runner.DeriveSeed and addressed by *slot*
// — a monotonically increasing packet-time index. Profile.At(seed, slot)
// replays each process from slot zero, so the impairment at any slot is a
// pure function of (profile, seed, slot): parallel workers, serial loops
// and retransmission schedules that skip slots (backoff) all observe the
// same fault timeline bit for bit.
package faults

import (
	"math"
	"math/rand"

	"repro/internal/channel"
	"repro/internal/runner"
	"repro/internal/signal"
)

// Burst is a Gilbert–Elliott burst-interference / deep-fade process: a
// two-state Markov chain stepped once per slot. In the bad state the link
// pays ExtraLossDB of interference-equivalent attenuation, and the tag's
// energy harvest drops to a quarter.
type Burst struct {
	// PGoodBad is the per-slot good→bad transition probability at
	// intensity 1 (burst arrival rate).
	PGoodBad float64
	// PBadGood is the per-slot bad→good probability (1/PBadGood is the
	// mean burst length in slots).
	PBadGood float64
	// ExtraLossDB is the bad-state excess attenuation at intensity 1.
	ExtraLossDB float64
}

// Drift is a residual-CFO random walk on top of the link's static CFO:
// each slot adds a N(0, StepHz²) increment, clamped to ±MaxHz (oscillator
// temperature drift between the excitation transmitter, the tag's ring
// oscillator and the receiver).
type Drift struct {
	StepHz float64 // per-slot step standard deviation at intensity 1
	MaxHz  float64 // walk clamp; <= 0 means ±2000 Hz
}

// Outage models excitation-transmitter outage windows: every Period slots,
// starting at slot Start, the carrier disappears for Length slots. The tag
// has nothing to ride on and nothing to harvest.
type Outage struct {
	PeriodSlots int
	LengthSlots int // at intensity 1; scaled and rounded with intensity
	// StartSlot is the first outage window's opening slot.
	StartSlot int
}

// Brownout is the harvested-energy model of the tag's power front end.
// The reservoir holds up to Capacity packets' worth of reflection energy
// (one full reflection costs 1 unit); each non-outage slot harvests
// HarvestPerSlot units (quartered while the burst process is in its bad
// state). A full reflection needs 1 unit; between ¼ and 1 unit the tag
// reflects a truncated prefix of the packet before running dry; below ¼ it
// skips the slot. Like the undervoltage-lockout comparator of a real
// harvester PMIC, the front end is hysteretic: once a brownout (truncation
// or skip) empties the reservoir, the tag stays dark and charges until a
// full reflection's worth is banked again. Without that hysteresis any
// sub-unit harvest rate would pin the tag in a truncate-every-slot limit
// cycle — a fault no retransmission schedule could ever recover from.
type Brownout struct {
	// HarvestPerSlot is the stressed harvest rate at intensity 1. Lower
	// intensity interpolates toward a comfortable 1.25 units/slot.
	HarvestPerSlot float64
	// Capacity is the reservoir size in reflection units; <= 0 means 3.
	Capacity float64
}

// Impulse is impulsive co-channel noise: each receiver sample is hit with
// probability Prob by an impulse of mean power PowerDBm.
type Impulse struct {
	Prob     float64 // per-sample impulse probability at intensity 1
	PowerDBm float64
}

// Profile is a named, composable set of impairment processes. The zero
// profile (and a nil *Profile) injects nothing.
type Profile struct {
	Name string
	// Intensity globally scales the profile in [0, 1]; <= 0 is treated as
	// the unset value and means full strength (1). Use WithIntensity to
	// sweep a profile's severity — intensity 0 returns a nil profile.
	Intensity float64

	Burst    *Burst
	Drift    *Drift
	Outage   *Outage
	Brownout *Brownout
	Impulse  *Impulse
}

// intensity returns the effective global scale in (0, 1].
func (p *Profile) intensity() float64 {
	if p.Intensity <= 0 || p.Intensity > 1 {
		return 1
	}
	return p.Intensity
}

// WithIntensity returns a copy of the profile scaled to lambda; lambda <= 0
// returns nil (faults disabled), which keeps the zero-intensity end of a
// sweep bit-identical to a run with no profile attached.
func (p *Profile) WithIntensity(lambda float64) *Profile {
	if p == nil || lambda <= 0 {
		return nil
	}
	if lambda > 1 {
		lambda = 1
	}
	q := *p
	q.Intensity = lambda
	return &q
}

// Packet is the impairment one packet slot runs under — the output of
// Profile.At. The zero value is a clean slot.
type Packet struct {
	Slot int
	// Outage: the excitation transmitter was silent; nothing was sent.
	Outage bool
	// SkipReflection: the tag's reservoir was too low to reflect at all.
	SkipReflection bool
	// BurstBad reports the Gilbert–Elliott state; ExtraLossDB holds the
	// resulting excess attenuation.
	BurstBad bool
	// Impairment is the slot's channel-level part: burst loss, the drift
	// process's CFOHz, the brownout Truncate fraction (0 means a full
	// packet) and the impulse noise parameters for the receiver capture.
	channel.Impairment
	// Energy is the tag reservoir level after this slot (reporting).
	Energy float64
}

// IsZero reports whether the slot is entirely clean.
func (f Packet) IsZero() bool {
	return !f.Outage && !f.SkipReflection && !f.BurstBad && f.channelClean()
}

// channelClean reports whether the slot leaves the channel untouched. An
// impulse power without an impulse probability draws no impulse.
func (f Packet) channelClean() bool {
	return f.ExtraLossDB == 0 && f.CFOHz == 0 && f.Truncate == 0 && f.ImpulseProb == 0
}

// ChannelImpairment returns a copy of the packet's channel-level faults
// for channel.Link.ApplyToWithPower, or nil when the channel path is clean
// (so a clean slot takes exactly the benign code path).
func (f Packet) ChannelImpairment() *channel.Impairment {
	if f.channelClean() {
		return nil
	}
	imp := f.Impairment
	return &imp
}

// defaultDriftMax and defaultBrownoutCap back the <= 0 struct fields.
const (
	defaultDriftMax    = 2000.0
	defaultBrownoutCap = 3.0
	// comfortHarvest is the intensity-0 end of the brownout interpolation:
	// comfortably above one reflection per slot.
	comfortHarvest = 1.25
	// truncateFloor: below this fraction of a reflection's energy the tag
	// skips the slot instead of emitting a uselessly short prefix.
	truncateFloor = 0.25
	// badHarvestFactor quarters the harvest while the burst fade is on.
	badHarvestFactor = 0.25
)

// outageAt reports whether slot is inside an outage window at the given
// effective window length.
func (o *Outage) outageAt(slot, lengthEff int) bool {
	if o == nil || lengthEff <= 0 || o.PeriodSlots <= 0 || slot < o.StartSlot {
		return false
	}
	return (slot-o.StartSlot)%o.PeriodSlots < lengthEff
}

// At returns the impairment for one packet slot. It replays the profile's
// sequential processes (burst chain, CFO walk, energy reservoir) from slot
// zero on RNG streams derived from (seed, process), so the result is a
// pure function of its arguments — identical across worker counts, run
// order and machines. Cost is O(slot) per call, negligible against the
// sample-level PHY work a packet costs. Nil-safe: a nil profile (or a
// negative slot) returns a clean Packet.
func (p *Profile) At(seed int64, slot int) Packet {
	if p == nil || slot < 0 {
		return Packet{}
	}
	lam := p.intensity()
	pkt := Packet{Slot: slot}

	outageLen := 0
	if p.Outage != nil {
		outageLen = int(math.Round(lam * float64(p.Outage.LengthSlots)))
	}
	pkt.Outage = p.Outage.outageAt(slot, outageLen)

	// Seed fully re-initialises a pooled generator, so the replayed streams
	// are exactly what fresh rand.New(rand.NewSource(seed)) would draw; the
	// pool keeps the ~5 KB source state out of the per-packet heap traffic.
	var burstRng, driftRng *rand.Rand
	if p.Burst != nil {
		burstRng = signal.RandPool.Get()
		defer signal.RandPool.Put(burstRng)
		burstRng.Seed(runner.DeriveSeed(seed, "faults.burst"))
	}
	if p.Drift != nil {
		driftRng = signal.RandPool.Get()
		defer signal.RandPool.Put(driftRng)
		driftRng.Seed(runner.DeriveSeed(seed, "faults.drift"))
	}

	cap := defaultBrownoutCap
	harvest := 0.0
	if p.Brownout != nil {
		if p.Brownout.Capacity > 0 {
			cap = p.Brownout.Capacity
		}
		// Interpolate from comfortable to the stressed rate as intensity
		// rises, so harvested energy shrinks monotonically with lambda.
		harvest = comfortHarvest*(1-lam) + p.Brownout.HarvestPerSlot*lam
	}
	energy := cap // the tag wakes with a full reservoir
	charging := false
	truncate := 0.0

	bad := false
	cfo := 0.0
	driftMax := defaultDriftMax
	if p.Drift != nil && p.Drift.MaxHz > 0 {
		driftMax = p.Drift.MaxHz
	}
	for i := 0; i <= slot; i++ {
		if p.Burst != nil {
			u := burstRng.Float64()
			if bad {
				bad = u >= p.Burst.PBadGood
			} else {
				bad = u < lam*p.Burst.PGoodBad
			}
		}
		if p.Drift != nil {
			cfo += driftRng.NormFloat64() * lam * p.Drift.StepHz
			cfo = math.Max(-driftMax, math.Min(driftMax, cfo))
		}
		if p.Brownout != nil {
			inOutage := p.Outage.outageAt(i, outageLen)
			h := harvest
			if inOutage {
				h = 0 // no excitation, nothing to harvest
			} else if bad {
				h *= badHarvestFactor
			}
			energy = math.Min(cap, energy+h)
			if !inOutage {
				// Reflection decision for slot i, replayed identically for
				// past slots and reported for the final one.
				switch {
				case charging && energy < 1:
					// UVLO hysteresis: stay dark until a full reflection's
					// worth is banked again.
					if i == slot {
						pkt.SkipReflection = true
					}
				case energy >= 1:
					charging = false
					energy--
				case energy >= truncateFloor:
					if i == slot {
						truncate = energy
					}
					energy = 0
					charging = true
				default:
					if i == slot {
						pkt.SkipReflection = true
					}
					charging = true
				}
			}
		}
	}
	pkt.Energy = energy
	pkt.BurstBad = bad
	if pkt.Outage {
		// An outage slot sends nothing; channel-level effects are moot.
		truncate = 0
		pkt.SkipReflection = false
	}
	pkt.Impairment = channel.Impairment{CFOHz: cfo, Truncate: truncate}
	if bad {
		pkt.ExtraLossDB = lam * p.Burst.ExtraLossDB
	}
	if p.Impulse != nil {
		pkt.ImpulseProb = lam * p.Impulse.Prob
		pkt.ImpulsePowerDBm = p.Impulse.PowerDBm
	}
	return pkt
}

// RoundCorruption adapts the profile to the MAC layer: the returned hook
// gives, per coordination round, the probability that the PLM downlink
// announcement is corrupted for every tag at once — certain during an
// excitation outage (there is no announcement), likely during a burst
// fade. A nil profile returns a nil hook (mac.Run's benign path).
func (p *Profile) RoundCorruption(seed int64) func(round int) float64 {
	if p == nil {
		return nil
	}
	lam := p.intensity()
	return func(round int) float64 {
		pkt := p.At(seed, round)
		switch {
		case pkt.Outage:
			return 1
		case pkt.BurstBad:
			return 0.9 * lam
		default:
			return 0
		}
	}
}
