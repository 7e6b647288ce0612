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

// Impairment is one packet's worth of time-varying channel faults, computed
// by a fault process (internal/faults) and applied by
// Link.ApplyToWithPower on top of the static link model. A nil Impairment
// is the benign stationary channel; the sample output and RNG draw
// sequence are unchanged in that case.
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

// ApplyToWithPower scales a baseband signal to the link's receive power
// and adds thermal noise, writing a capture with headroom samples of
// leading and trailing noise into dst. It reuses dst's sample capacity when
// large enough, so per-packet callers can recycle one capture buffer; dst
// must not alias s, and steady state allocates nothing. meanPower is the
// source's mean |x|² when the caller already knows it (<= 0 means "compute
// it here"): the waveform cache stores each entry's mean power at synthesis
// time, and passing it back skips a full re-scan of an immutable source on
// every packet. Passing exactly s.MeanPower() is bit-identical to passing
// 0. The source is normalised to unit power, so no gain inside the
// waveform (the tag model's mixer included) reaches the capture: the
// link's TagLossDB is the only tag loss applied, and callers pass
// excludeTagLoss=false. True drops TagLossDB from the receive power.
//
// It is Begin, Fill to the end and Release. The packet pipeline makes
// those calls itself, to run detection on a prefix of the capture before
// the rest is computed.
func (l Link) ApplyToWithPower(dst *signal.Signal, s *signal.Signal, headroom int, excludeTagLoss bool, meanPower float64) error {
	c, err := l.Begin(dst, s, headroom, excludeTagLoss, meanPower)
	if err != nil {
		return err
	}
	c.Fill(len(dst.Samples))
	c.Release()
	return nil
}

// Capture is one packet's capture in the making: Link.Begin sizes it and
// draws the packet's fade gain and tap phases, and Fill computes its
// samples in order, on demand, so a receiver can read a prefix before
// the rest exists. Each sample Fill writes is bit for bit the one a
// single ApplyToWithPower call writes there. The source must stay
// unchanged until the capture is filled whole or released.
type Capture struct {
	out      *signal.Signal
	src      []complex128
	headroom int
	g        complex128 // the body's gain: receive amplitude over source RMS, times the fade
	taps     []echo
	cut      int     // first sample the brownout silences; len(out.Samples) when none
	cfo      float64 // offset shifted onto the capture, Hz
	noise    float64 // AWGN power
	impulse  float64 // per-sample impulse probability
	sigma    float64 // impulse amplitude per real dimension
	rng      *signal.Noise
	filled   int           // out.Samples[:filled] is final
	view     signal.Signal // the filled prefix Fill returns
}

// echo is one multipath tap drawn at Begin: source sample i lands on
// capture sample headroom+i+delay with the extra gain gain.
type echo struct {
	delay int
	gain  complex128
}

// capturePool recycles Capture state (its echo slice included), so a
// packet's capture allocates nothing in steady state.
var capturePool = signal.FreeList[*Capture]{New: func() *Capture { return new(Capture) }, Cap: 32}

// Begin starts the capture of s over the link into dst, with the
// arguments and validation of ApplyToWithPower. It sizes dst.Samples to
// the whole capture and draws the fade gain and tap phases; Fill
// computes the samples. Every draw — fade gain, tap phases, AWGN,
// impulses — continues one stream, exactly
// rand.New(rand.NewSource(l.Seed))'s, which the capture holds until
// Release.
func (l Link) Begin(dst *signal.Signal, s *signal.Signal, headroom int, excludeTagLoss bool, meanPower float64) (*Capture, error) {
	if s == nil || len(s.Samples) == 0 {
		return nil, fmt.Errorf("channel: empty input signal")
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
		return nil, fmt.Errorf("channel: zero-power input signal")
	}
	n := len(s.Samples) + 2*headroom
	dst.Rate = s.Rate
	if cap(dst.Samples) >= n {
		dst.Samples = dst.Samples[:n]
	} else {
		dst.Samples = make([]complex128, n)
	}
	c := capturePool.Get() // zero but for its echo slice's capacity (Release)
	c.out, c.src, c.headroom = dst, s.Samples, headroom
	c.rng = signal.GetNoise(l.Seed)
	c.g = complex(amp/math.Sqrt(p), 0) * l.fadeGain(c.rng)
	for _, tap := range l.Multipath {
		c.taps = append(c.taps, echo{
			delay: int(math.Round(tap.Delay * s.Rate)),
			gain: complex(signal.AmplitudeForPowerDBm(tap.GainDB), 0) *
				cmplx.Exp(complex(0, 2*math.Pi*c.rng.Float64())),
		})
	}
	c.cut = n
	if t := l.truncateFraction(); t > 0 {
		// The tag browned out t of the way through the packet and stopped
		// reflecting: everything after the cut is gone, echoes included.
		c.cut = headroom + int(t*float64(len(s.Samples)))
	}
	c.cfo = l.CFOHz
	if l.Impairment != nil {
		c.cfo += l.Impairment.CFOHz
	}
	c.noise = signal.DBToPower(l.NoiseFloor)
	if imp := l.Impairment; imp != nil && imp.ImpulseProb > 0 {
		c.impulse = imp.ImpulseProb
		c.sigma = math.Sqrt(signal.DBToPower(imp.ImpulsePowerDBm) / 2)
	}
	return c, nil
}

// Fill computes the capture through at least sample n and returns its
// filled prefix, valid until Release (the whole capture, dst itself,
// once complete); an n at or past the end fills it whole. A fill ends
// on a multiple of signal.RotorBlock or at the capture's end, so the
// CFO shift of the next one continues Derotate's exact-index phasors.
// A link with impulse noise fills whole on the first call: its impulses
// draw after the capture's whole AWGN stream.
func (c *Capture) Fill(n int) *signal.Signal {
	total := len(c.out.Samples)
	if n >= total || c.impulse > 0 {
		n = total
	} else {
		n = min(total, (n+signal.RotorBlock-1)/signal.RotorBlock*signal.RotorBlock)
	}
	if n > c.filled {
		c.fill(c.filled, n)
		c.filled = n
	}
	if c.filled == total {
		return c.out
	}
	c.view = signal.Signal{Rate: c.out.Rate, Samples: c.out.Samples[:c.filled]}
	return &c.view
}

// fill computes samples [lo, hi) after every sample before lo: each
// stage of the whole-capture model, restricted to those indices, in the
// model's order — zero margins, the scaled body, the echoes added by
// output index, the brownout cut, the CFO shift, then the AWGN stream
// continued, and the impulses (a capture with impulses is filled in one
// call).
func (c *Capture) fill(lo, hi int) {
	x := c.out.Samples
	h, body := c.headroom, c.headroom+len(c.src)
	for i := lo; i < min(hi, h); i++ {
		x[i] = 0
	}
	for i := max(lo, body); i < hi; i++ {
		x[i] = 0
	}
	if a, b := max(lo, h), min(hi, body); a < b {
		signal.ScaleInto(x[a:b], c.src[a-h:b-h], c.g)
	}
	for _, e := range c.taps {
		d := h + e.delay
		if a, b := max(lo, d), min(hi, d+len(c.src)); a < b {
			for i, v := range c.src[a-d : b-d] {
				x[a+i] += v * c.g * e.gain
			}
		}
	}
	for i := max(lo, c.cut); i < hi; i++ {
		x[i] = 0
	}
	if c.cfo != 0 {
		signal.Derotate(x[lo:hi], x[lo:hi], lo, -c.cfo, c.out.Rate)
	}
	part := signal.Signal{Samples: x[lo:hi]}
	part.AddAWGN(c.noise, c.rng)
	if c.impulse > 0 {
		// Impulsive co-channel noise: sparse high-power events on top of
		// the thermal floor (microwave ovens, frequency-hopping bursts).
		for j := range x {
			if c.rng.Float64() < c.impulse {
				x[j] += complex(c.rng.NormFloat64()*c.sigma, c.rng.NormFloat64()*c.sigma)
			}
		}
	}
}

// Release ends the capture, filled or not, and recycles its state and
// noise stream. The capture's samples stay in dst.
func (c *Capture) Release() {
	signal.PutNoise(c.rng)
	*c = Capture{taps: c.taps[:0]}
	capturePool.Put(c)
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

// fadeGain draws one packet's Rician small-scale fading gain (complex,
// mean square 1) with the link's FadingK; K <= 0 disables fading.
func (l Link) fadeGain(rng *signal.Noise) complex128 {
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
// Link.ApplyToWithPower it rejects empty and zero-power inputs — silently returning a
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
	signal.ScaleInto(out.Samples[headroom:], s.Samples, g)
	noise := signal.GetNoise(seed)
	out.AddAWGN(1, noise)
	signal.PutNoise(noise)
	return out, nil
}
