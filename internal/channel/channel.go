// Package channel models the 2.4 GHz indoor links of the paper's
// evaluation: log-distance path loss for the LOS hallway and NLOS
// multi-wall deployments of Fig 9, thermal noise floors per receiver
// bandwidth, and the backscatter link budget
//
//	RSSI = Ptx + Gsys − PL(tx→tag) − TagLoss − PL(tag→rx)
//
// Path-loss exponents and the system gain constant are calibrated once
// against the RSSI-vs-distance anchors the paper reports (Fig 10c, 11c,
// 12c, 13c) and recorded in EXPERIMENTS.md; all throughput/BER behaviour
// then emerges from running the real PHY chains at the resulting SNR.
package channel

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"

	"repro/internal/signal"
)

// Deployment describes one propagation environment.
type Deployment struct {
	Name string
	// RefLossDB is the path loss at 1 m (free space at 2.4 GHz ≈ 40 dB).
	RefLossDB float64
	// Exponent is the log-distance path-loss exponent.
	Exponent float64
	// Walls lists wall positions: any link longer than a wall's Beyond
	// distance pays its extra attenuation. Models Fig 9(b), where the
	// backscatter signal crosses one more wall past 22 m.
	Walls []Wall
}

// Wall is an attenuating obstacle crossed by links longer than Beyond.
type Wall struct {
	Beyond float64 // metres
	LossDB float64
}

// LOS is the hallway line-of-sight deployment of Fig 9(a). The hallway
// wave-guides slightly, giving a sub-free-space exponent.
var LOS = Deployment{Name: "LOS", RefLossDB: 40, Exponent: 1.9}

// NLOS is the through-the-wall deployment of Fig 9(b): one wall always and
// a second wall beyond 22 m. The distance exponent is mild — the receiver
// hallway wave-guides — and the walls carry the loss; Fig 11c's RSSI only
// spans -72 to -84 dBm before the second wall kills the link.
var NLOS = Deployment{
	Name:      "NLOS",
	RefLossDB: 40,
	Exponent:  1.6,
	Walls:     []Wall{{Beyond: 0, LossDB: 5}, {Beyond: 22, LossDB: 14}},
}

// PathLossDB returns the total path loss in dB over d metres.
func (dep Deployment) PathLossDB(d float64) float64 {
	if d < 0.1 {
		d = 0.1
	}
	pl := dep.RefLossDB + 10*dep.Exponent*math.Log10(d)
	for _, w := range dep.Walls {
		if d > w.Beyond {
			pl += w.LossDB
		}
	}
	return pl
}

// Link is a fully-parameterised backscatter link.
type Link struct {
	Deployment Deployment
	TxPowerDBm float64 // excitation transmitter power
	SystemGain float64 // antenna gains + calibration, dB
	TagLossDB  float64 // reflection efficiency + mixer conversion loss
	TxToTag    float64 // metres
	TagToRx    float64 // metres
	NoiseFloor float64 // dBm at the receiver bandwidth
	// FadingK is the Rician K factor (linear) of per-packet small-scale
	// fading: the packet's channel gain is sqrt(K/(K+1)) + CN(0,1/(K+1)).
	// Zero (the default) disables fading; use a small positive K (e.g.
	// 0.01) for near-Rayleigh conditions.
	FadingK float64
	// CFOHz is the residual carrier frequency offset between the
	// excitation transmitter (plus the tag's ring-oscillator shift) and
	// the receiver's local oscillator. 802.11 allows ±20 ppm per side
	// (up to ~±48 kHz at 2.4 GHz).
	CFOHz float64
	// Multipath lists delayed echo taps added to the direct path. Indoor
	// delay spreads of tens to hundreds of nanoseconds fit inside the
	// 800 ns OFDM cyclic prefix, where the LTF equaliser absorbs them —
	// one reason wideband OFDM WiFi is the most robust excitation.
	Multipath []Tap
	// FadeModel selects the small-scale fading distribution; the zero
	// value is FadeRician parameterised by FadingK.
	FadeModel FadeModel
	// Impairment, when non-nil, layers one packet's time-varying faults
	// (burst loss, CFO drift, brownout truncation, impulsive noise) on top
	// of the static model above.
	Impairment *Impairment
	Seed       int64 // RNG seed for AWGN, fading, tap phases and impulses
}

// Tap is one multipath echo relative to the direct path.
type Tap struct {
	Delay  float64 // seconds after the direct path
	GainDB float64 // relative to the direct path (negative)
}

// FadeModel selects the per-packet small-scale fading distribution drawn
// by Apply. The zero value keeps the historical behaviour (Rician with
// FadingK, no fading when K <= 0), so existing configurations and the
// calibration are unchanged; fault profiles reference the same enum so the
// baseline fading model and the injected impairments never disagree.
type FadeModel int

// Available fading distributions.
const (
	// FadeRician draws sqrt(K/(K+1)) + CN(0, 1/(K+1)) using Link.FadingK;
	// K <= 0 disables fading. This is the default.
	FadeRician FadeModel = iota
	// FadeRayleigh draws a pure CN(0, 1) gain; FadingK is ignored. The
	// worst-case NLOS model GuardRider-style deployments assume.
	FadeRayleigh
	// FadeNone pins the channel gain to 1 regardless of FadingK — the
	// deterministic baseline calibration sweeps use.
	FadeNone
)

// String names the model.
func (m FadeModel) String() string {
	switch m {
	case FadeRician:
		return "rician"
	case FadeRayleigh:
		return "rayleigh"
	case FadeNone:
		return "none"
	}
	return fmt.Sprintf("FadeModel(%d)", int(m))
}

// Impairment is one packet's worth of time-varying channel faults, computed
// by a fault process (internal/faults) and applied by Link.Apply on top of
// the static link model. A nil Impairment is the benign stationary channel;
// Apply's sample output and RNG draw sequence are unchanged in that case.
type Impairment struct {
	// ExtraLossDB is excess attenuation (deep fade or interference-
	// equivalent SINR degradation) applied to the backscatter RSSI.
	ExtraLossDB float64
	// CFOHz is added to the link's static CFO (random-walk drift).
	CFOHz float64
	// Truncate, when in (0,1), zeroes the trailing 1-Truncate fraction of
	// the reflected waveform: the tag browned out mid-packet and stopped
	// reflecting. 0 (and >= 1) means the full packet is reflected.
	Truncate float64
	// ImpulseProb is the per-sample probability of an impulsive co-channel
	// noise event; ImpulsePowerDBm is the mean power of one impulse.
	ImpulseProb     float64
	ImpulsePowerDBm float64
}

// Defaults calibrated in EXPERIMENTS.md §calibration.
const (
	DefaultSystemGainDB = 17.7
	// DefaultTagLossDB = 6 dB reflection inefficiency + 3.9 dB square-wave
	// mixer conversion loss (2/π amplitude).
	DefaultTagLossDB = 9.9
)

// NoiseFloorFor returns the receiver noise floor for a bandwidth and noise
// figure.
func NoiseFloorFor(bandwidthHz, nfDB float64) float64 {
	return signal.NoiseFloorDBm(bandwidthHz, nfDB)
}

// BackscatterRSSI returns the backscattered signal power at the receiver.
func (l Link) BackscatterRSSI() float64 {
	return l.TxPowerDBm + l.SystemGain -
		l.Deployment.PathLossDB(l.TxToTag) - l.TagLossDB -
		l.Deployment.PathLossDB(l.TagToRx)
}

// ExcitationRSSIAtTag returns the excitation power arriving at the tag,
// which drives the envelope detector (PLM downlink, Fig 4).
func (l Link) ExcitationRSSIAtTag() float64 {
	return l.TxPowerDBm + l.SystemGain/2 - l.Deployment.PathLossDB(l.TxToTag)
}

// SNRdB returns the backscatter link SNR at the receiver.
func (l Link) SNRdB() float64 { return l.BackscatterRSSI() - l.NoiseFloor }

// rngPool recycles *rand.Rand instances across Apply calls: the default
// source carries a ~5 KB state table, and Seed re-initialises that state
// completely, so a pooled generator seeded with l.Seed produces exactly
// the draw sequence a fresh rand.New(rand.NewSource(0)) would after the
// same Seed. A GC-stable FreeList keeps the recycle deterministic (see
// signal.FreeList).
var rngPool = signal.FreeList[*rand.Rand]{New: func() *rand.Rand { return rand.New(rand.NewSource(0)) }}

// Apply scales a unit-power baseband signal to the link's receive power and
// adds thermal noise, returning a new capture with headroom samples of
// leading and trailing noise. The tag-side losses must already be embedded
// in the waveform (the tag model applies its own mixer), so callers pass
// excludeTagLoss=true when the waveform was produced by the tag model.
func (l Link) Apply(s *signal.Signal, headroom int, excludeTagLoss bool) (*signal.Signal, error) {
	out := signal.New(0, 0)
	if err := l.ApplyTo(out, s, headroom, excludeTagLoss); err != nil {
		return nil, err
	}
	return out, nil
}

// ApplyTo is Apply writing into dst, reusing dst's sample capacity when
// large enough so per-packet callers can recycle one capture buffer. dst
// must not alias s. Steady state allocates nothing.
func (l Link) ApplyTo(dst *signal.Signal, s *signal.Signal, headroom int, excludeTagLoss bool) error {
	return l.ApplyToWithPower(dst, s, headroom, excludeTagLoss, 0)
}

// ApplyToWithPower is ApplyTo with the source's mean |x|² supplied by the
// caller (<= 0 means "compute it here"). The waveform cache stores each
// entry's mean power at synthesis time; passing it back skips the full
// re-scan of an immutable source on every packet. Passing exactly
// s.MeanPower() is bit-identical to ApplyTo by substitution.
func (l Link) ApplyToWithPower(dst *signal.Signal, s *signal.Signal, headroom int, excludeTagLoss bool, meanPower float64) error {
	if s == nil || len(s.Samples) == 0 {
		return fmt.Errorf("channel: empty input signal")
	}
	rssi := l.BackscatterRSSI()
	if excludeTagLoss {
		rssi += l.TagLossDB
	}
	if l.Impairment != nil {
		rssi -= l.Impairment.ExtraLossDB
	}
	amp := signal.AmplitudeForPowerDBm(rssi)
	// Normalise the source to unit power first.
	p := meanPower
	if p <= 0 {
		p = s.MeanPower()
	}
	if p <= 0 {
		return fmt.Errorf("channel: zero-power input signal")
	}
	n := len(s.Samples) + 2*headroom
	dst.Rate = s.Rate
	if cap(dst.Samples) >= n {
		dst.Samples = dst.Samples[:n]
		// Only the headroom margins need zeroing: the body is assigned
		// unconditionally below, and the multipath/impulse adders only
		// ever add on top of those two regions.
		for i := 0; i < headroom; i++ {
			dst.Samples[i] = 0
		}
		for i := headroom + len(s.Samples); i < n; i++ {
			dst.Samples[i] = 0
		}
	} else {
		dst.Samples = make([]complex128, n)
	}
	out := dst
	rng := rngPool.Get()
	defer rngPool.Put(rng)
	rng.Seed(l.Seed)
	g := complex(amp/math.Sqrt(p), 0) * l.fadeGain(rng)
	for i, v := range s.Samples {
		out.Samples[headroom+i] = v * g
	}
	for _, tap := range l.Multipath {
		d := int(math.Round(tap.Delay * s.Rate))
		tapGain := complex(signal.AmplitudeForPowerDBm(tap.GainDB), 0) *
			cmplx.Exp(complex(0, 2*math.Pi*rng.Float64()))
		for i, v := range s.Samples {
			j := headroom + i + d
			if j >= len(out.Samples) {
				break
			}
			out.Samples[j] += v * g * tapGain
		}
	}
	if t := l.truncateFraction(); t > 0 {
		// The tag browned out t of the way through the packet and stopped
		// reflecting: everything after the cut is gone, echoes included.
		cut := headroom + int(t*float64(len(s.Samples)))
		for j := cut; j < len(out.Samples); j++ {
			out.Samples[j] = 0
		}
	}
	cfo := l.CFOHz
	if l.Impairment != nil {
		cfo += l.Impairment.CFOHz
	}
	if cfo != 0 {
		out.FrequencyShift(cfo)
	}
	out.AddAWGN(signal.DBToPower(l.NoiseFloor), rng)
	if imp := l.Impairment; imp != nil && imp.ImpulseProb > 0 {
		// Impulsive co-channel noise: sparse high-power events on top of
		// the thermal floor (microwave ovens, frequency-hopping bursts).
		sigma := math.Sqrt(signal.DBToPower(imp.ImpulsePowerDBm) / 2)
		for j := range out.Samples {
			if rng.Float64() < imp.ImpulseProb {
				out.Samples[j] += complex(rng.NormFloat64()*sigma, rng.NormFloat64()*sigma)
			}
		}
	}
	return nil
}

// truncateFraction returns the active brownout cut point in (0,1), or 0
// when the full packet is reflected.
func (l Link) truncateFraction() float64 {
	if l.Impairment == nil {
		return 0
	}
	if t := l.Impairment.Truncate; t > 0 && t < 1 {
		return t
	}
	return 0
}

// fadeGain draws one packet's small-scale fading gain (complex, mean
// square 1) from the link's configured FadeModel.
func (l Link) fadeGain(rng *rand.Rand) complex128 {
	switch l.FadeModel {
	case FadeNone:
		return 1
	case FadeRayleigh:
		s := math.Sqrt(0.5) // per real dimension, mean square 1 total
		return complex(rng.NormFloat64()*s, rng.NormFloat64()*s)
	}
	if l.FadingK <= 0 {
		return 1
	}
	k := l.FadingK
	los := math.Sqrt(k / (k + 1))
	sigma := math.Sqrt(1 / (k + 1) / 2) // per real dimension
	return complex(los+rng.NormFloat64()*sigma, rng.NormFloat64()*sigma)
}

// ApplySNR is a convenience that places the signal at an explicit SNR above
// the unit noise floor: signal power is set to DBToPower(snrDB) and noise
// power to 1. Useful for BER sweeps decoupled from geometry. Like
// Link.Apply it rejects empty and zero-power inputs — silently returning a
// noise-only capture would make every downstream decode fail while looking
// like an ordinary low-SNR loss.
func ApplySNR(s *signal.Signal, snrDB float64, headroom int, seed int64) (*signal.Signal, error) {
	if s == nil || len(s.Samples) == 0 {
		return nil, fmt.Errorf("channel: empty input signal")
	}
	p := s.MeanPower()
	if p <= 0 {
		return nil, fmt.Errorf("channel: zero-power input signal")
	}
	out := signal.New(s.Rate, len(s.Samples)+2*headroom)
	g := complex(math.Sqrt(signal.DBToPower(snrDB)/p), 0)
	for i, v := range s.Samples {
		out.Samples[headroom+i] = v * g
	}
	out.AddAWGN(1, rand.New(rand.NewSource(seed)))
	return out, nil
}
