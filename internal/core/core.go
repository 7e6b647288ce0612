// Package core assembles the FreeRider system end to end: a commodity
// excitation transmitter (802.11g/n WiFi, ZigBee, or Bluetooth), the tag's
// codeword translator and channel shifter, the radio link, the
// adjacent-channel commodity receiver, and the backscatter decoder that
// compares the two bit streams. Everything runs at sample level, so
// detection failures, bit errors and throughput all emerge from the PHY
// chains rather than from closed-form approximations.
package core

import (
	"fmt"
	"math/rand"

	"repro/internal/channel"
	"repro/internal/decoder"
	"repro/internal/faults"
	"repro/internal/fec"
	"repro/internal/runner"
	"repro/internal/signal"
	"repro/internal/waveform"
	"repro/internal/wifi"
)

// Radio identifies the excitation technology.
type Radio int

// Supported excitation radios.
const (
	WiFi Radio = iota
	ZigBee
	Bluetooth
)

// String names the radio.
func (r Radio) String() string {
	switch r {
	case WiFi:
		return "802.11g/n WiFi"
	case ZigBee:
		return "ZigBee"
	case Bluetooth:
		return "Bluetooth"
	}
	return fmt.Sprintf("Radio(%d)", int(r))
}

// ReceiverMode selects how many commodity receivers decode the uplink.
type ReceiverMode int

const (
	// DualReceiver is the paper's deployment: receiver 1 captures the
	// clean excitation stream, receiver 2 the backscattered stream, and
	// the decoder window-compares the two. The zero value, so existing
	// configs keep their behaviour.
	DualReceiver ReceiverMode = iota
	// SingleReceiver decodes from the backscattered capture alone
	// (Double-decker): the PHY extracts a per-unit flip feature —
	// pilot-correlation phase (WiFi), complemented-codebook correlation
	// (ZigBee), filtered in-band power (Bluetooth) — and the decoder
	// compares each window against its predecessor
	// (decoder.DecodeDifferentialWindows). No reference stream, no
	// backhaul; the cost is a smaller effective window (features per PHY
	// unit instead of bits per PHY unit) and transition-error propagation.
	SingleReceiver
)

// String names the receiver mode.
func (m ReceiverMode) String() string {
	switch m {
	case DualReceiver:
		return "dual"
	case SingleReceiver:
		return "single"
	}
	return fmt.Sprintf("ReceiverMode(%d)", int(m))
}

// Config describes one backscatter link end to end.
type Config struct {
	Radio Radio
	Link  channel.Link

	// PayloadSize is the excitation packet payload in bytes, within the
	// radio's frame: WiFi 24–4091, ZigBee 9–125, Bluetooth 1–255.
	PayloadSize int
	// WiFiRateMbps selects the 802.11 rate (6/9/12/18; codeword translation
	// by 180° phase needs BPSK or QPSK subcarriers).
	WiFiRateMbps int
	// Redundancy is the PHY units per tag bit: OFDM symbols (WiFi, paper
	// uses 4), OQPSK symbols (ZigBee), or FSK bits (Bluetooth).
	Redundancy int
	// InterPacketGap is the idle time between excitation packets, seconds.
	InterPacketGap float64
	// Quaternary enables the eq. 5 scheme on WiFi: the tag steps its phase
	// in 90° increments, carrying 2 bits per window instead of 1. Requires
	// a QPSK rate (12/18 Mbps) and a monitor-mode decoder with access to
	// raw demapped bits (rotations are invisible after Viterbi decoding).
	Quaternary bool
	// PilotPhaseTracking enables the receiver behaviour FreeRider must not
	// have (ablation; see §3.2.1 on pilot tones).
	PilotPhaseTracking bool
	// Faults attaches a fault-injection profile: each packet slot runs
	// under faults.Profile.At(Seed, slot). Nil disables fault injection
	// and leaves every code path bit-identical to a fault-free build.
	Faults *faults.Profile
	// Coding enables the Reed-Solomon coded tag uplink: each packet's
	// chunk is RS-encoded per the config (shortened to the packet's
	// capacity), and Run/RunParallel report post-correction payload
	// statistics alongside the raw channel BER. Nil keeps the
	// uncoded path bit-identical to earlier builds. The coded session
	// draws the same random tag stream as the uncoded one and transmits
	// the encoded image of its prefix, so at equal seeds both see the
	// identical channel realisation — the property the chaos soak's
	// coded-residual invariant leans on.
	Coding *fec.Config
	// Seed drives every stochastic element of the session.
	Seed int64
	// Waveforms attaches a content-addressed cache of clean backscattered
	// excitation waveforms. Synthesising a packet (TX chain + codeword
	// translation + channel shift) is deterministic in its content — radio,
	// PHY config, payload, scrambler seed, tag bits — so identical packets
	// replay one cached waveform instead of re-synthesising it. Cached
	// entries are immutable; the channel applies fading and noise into a
	// separate capture buffer (Link.ApplyToWithPower never writes its
	// source), which is what makes sharing across sessions and goroutines
	// safe. Nil disables caching and leaves every result bit-identical
	// either way.
	Waveforms *waveform.Cache
	// ReceiverMode selects dual-receiver (window-compare against the
	// clean reference stream; the default) or single-receiver decode
	// (self-referenced differential decision on PHY flip features). The
	// tag's transmission is identical in both modes — it always keys the
	// absolute flip state — so cached waveforms are shared across modes
	// and the mode does not participate in waveform cache keys.
	ReceiverMode ReceiverMode
	// ContentSeed, when non-zero, decouples packet content (payload bytes,
	// tag bits, WiFi scrambler seed) from the channel realisation (fading,
	// noise) in Run/RunParallel: content draws from streams derived from
	// ContentSeed while the channel keeps drawing from streams derived from
	// Seed. Sweeps that vary Seed per point can then share one ContentSeed —
	// and therefore one set of cached waveforms — while every point still
	// sees independent channel noise. Zero keeps the legacy single-stream
	// draw order, bit-identical to builds without this knob. RunPacket
	// always uses the session's sequential stream for both.
	ContentSeed int64
}

// Calibrated per-radio receiver detection thresholds: normalised preamble
// correlation below which a commodity chip misses the packet (see
// EXPERIMENTS.md §calibration).
const (
	wifiDetectionThreshold = 0.72 // periodicity metric; fails below ~4 dB instantaneous SNR
	zbDetectionThreshold   = 0.85 // fails below ~4.3 dB
	btDetectionThreshold   = 0.81 // fails below ~3 dB
)

// Single-receiver (differential) decision constants.
const (
	// SingleThreshold slices the window-to-window disagreement fraction.
	// All three flip features are symmetric binary estimates (a flipped
	// unit looks like the complement of an unflipped one), so the midpoint
	// is the maximum-likelihood threshold for every radio — unlike the
	// dual ZigBee path, whose mismatch fraction saturates at the
	// codebook's confusion floor rather than 1.
	SingleThreshold = 0.5
	// cpeGain is the EWMA gain of the single-receiver WiFi feature
	// extractor's common-phase-error tracker (see decodeWiFiSingle).
	cpeGain = 0.25
	// btSinglePowerRatio is the filtered-power ratio below which a
	// Bluetooth bit counts as flipped. The tag's square-wave toggle puts
	// (2/π)² ≈ 0.41 of a flipped bit's power in the surviving sideband
	// inside the ±500 kHz channel filter; 0.7 sits midway between that
	// and the unflipped ratio of 1 on a linear scale.
	btSinglePowerRatio = 0.7
)

// DefaultConfig returns the calibrated defaults for a radio at the given
// tag-to-receiver distance (TX-to-tag 1 m, LOS, as in §4.1).
func DefaultConfig(r Radio, tagToRx float64) Config {
	cfg := Config{Radio: r, Redundancy: 4, InterPacketGap: 100e-6, Seed: 1, Link: channel.Link{
		Deployment: channel.LOS,
		SystemGain: channel.DefaultSystemGainDB,
		TagLossDB:  channel.DefaultTagLossDB,
		TxToTag:    1,
		TagToRx:    tagToRx,
		FadingK:    4, // Rician, strong LOS component
		Seed:       1,
	}}
	switch r {
	case WiFi:
		cfg.PayloadSize = 1500
		cfg.WiFiRateMbps = 6
		cfg.Link.TxPowerDBm = 11
		cfg.Link.NoiseFloor = channel.NoiseFloorFor(20e6, 6)
	case ZigBee:
		cfg.PayloadSize = 100
		cfg.InterPacketGap = 192e-6 // 802.15.4 turnaround
		cfg.Link.TxPowerDBm = 5
		// 4 dB below the WiFi rig: the CC2650's PCB antenna path (the RSSI
		// anchor is Fig 12c's -97 dBm at 22 m).
		cfg.Link.SystemGain = channel.DefaultSystemGainDB - 4
		cfg.Link.NoiseFloor = channel.NoiseFloorFor(2e6, 10)
	case Bluetooth:
		cfg.PayloadSize = 255
		cfg.Redundancy = 16
		cfg.InterPacketGap = 150e-6 // T_IFS
		cfg.Link.TxPowerDBm = 0
		// 7 dB below the WiFi rig (anchor: Fig 13c's -100 dBm at 12 m).
		cfg.Link.SystemGain = channel.DefaultSystemGainDB - 7
		cfg.Link.NoiseFloor = channel.NoiseFloorFor(1e6, 12)
	}
	return cfg
}

// SetNLOS switches the link to the paper's through-the-wall deployment
// (Fig 9b, Fig 11): the NLOS path-loss model at the full 15 dBm, with a
// weaker line-of-sight component (Rician K 1.5).
func (c *Config) SetNLOS() {
	c.Link.Deployment = channel.NLOS
	c.Link.TxPowerDBm = 15
	c.Link.FadingK = 1.5
}

// WindowThreshold returns the radio's dual-receiver window threshold: the
// mismatch fraction above which a window decodes as tag bit 1. The
// complementing WiFi and Bluetooth translations slice at the midpoint;
// ZigBee's inverted chip sequence decodes to a different symbol only with
// the codebook's confusion margin, so it slices lower.
func WindowThreshold(r Radio) float64 {
	if r == ZigBee {
		return 0.3
	}
	return 0.5
}

// PacketResult reports one excitation packet's backscatter outcome.
type PacketResult struct {
	Detected   bool    // adjacent-channel receiver found the packet
	Decoded    bool    // tag windows were extracted
	TagBits    int     // tag bits embedded by the tag
	BitErrors  int     // decoded tag bits differing from the sent bits
	AirTime    float64 // excitation packet duration, seconds
	Samples    int     // complex-baseband samples in the receiver capture
	DecodedTag []byte  // the decoded tag bits (nil when not decoded)
	// DroppedElements counts stream elements the decoder could not
	// compare because the two sides disagreed on length (reference vs
	// capture in the window compare, sent vs decoded tag bits in the BER
	// accounting). Zero on aligned packets; nonzero values surface
	// mismatches that were previously truncated away silently.
	DroppedElements int
	// Coded-uplink outcome (Config.Coding only). DataBits is the payload
	// bits the chunk carried after FEC overhead; DecodedData the
	// RS-corrected payload; DataBitErrors its errors against the sent
	// payload; CorrectedSymbols the symbol corrections RS applied; RSFailed
	// reports that at least one codeword exceeded the code's correction
	// radius (DecodedData then passes through the raw hard decisions).
	DataBits         int
	DecodedData      []byte
	DataBitErrors    int
	CorrectedSymbols int
	RSFailed         bool
	// Fault records the impairment this packet's slot ran under (zero
	// when no profile is attached or the slot was clean).
	Fault faults.Packet
}

// Session runs excitation packets through one link configuration.
type Session struct {
	cfg Config
	rng *rand.Rand
	// slot is the sequential RunPacket slot counter: the packet-time
	// index the fault profile is addressed by. Run/RunParallel instead
	// use the packet index as the slot.
	slot int

	// Built by configure: the radio's half of the pipeline, the tag bits
	// per packet, and the coded-chunk geometry (non-nil iff Config.Coding
	// is set). Runs only read them, so RunParallel workers share them.
	phy      phy
	capacity int
	layout   *fec.Layout
}

// validate checks the radio-independent fields; newPHY checks the rest.
func validate(cfg Config) error {
	switch cfg.ReceiverMode {
	case DualReceiver:
	case SingleReceiver:
		if cfg.PilotPhaseTracking {
			// Pilot tracking would rotate the tag's phase steps away before
			// the single receiver's flip feature ever sees them — the same
			// reason FreeRider's dual decoder needs tracking off (§3.2.1),
			// but fatal rather than merely degrading here.
			return fmt.Errorf("core: single-receiver mode is incompatible with pilot phase tracking")
		}
	default:
		return fmt.Errorf("core: unknown receiver mode %v", cfg.ReceiverMode)
	}
	if cfg.Redundancy <= 0 {
		return fmt.Errorf("core: redundancy %d must be positive", cfg.Redundancy)
	}
	if cfg.Faults != nil {
		if err := cfg.Faults.Validate(); err != nil {
			return fmt.Errorf("core: %w", err)
		}
	}
	if cfg.Coding != nil {
		if err := cfg.Coding.Validate(); err != nil {
			return fmt.Errorf("core: %w", err)
		}
	}
	return nil
}

// NewSession validates the configuration and prepares a session.
func NewSession(cfg Config) (*Session, error) {
	s := &Session{rng: rand.New(rand.NewSource(cfg.Seed))}
	if err := s.configure(cfg); err != nil {
		return nil, err
	}
	return s, nil
}

// configure validates cfg and builds what the session derives from it once:
// the phy (with its translator), the per-packet capacity and the coded
// layout. It commits only when all of them succeed, so a rejected
// SetQuaternary leaves the session as it was.
func (s *Session) configure(cfg Config) error {
	if err := validate(cfg); err != nil {
		return err
	}
	p, err := newPHY(cfg, s.phy)
	if err != nil {
		return err
	}
	capacity := p.capacity()
	if capacity == 0 {
		return fmt.Errorf("core: redundancy %d leaves no room for a tag bit in a packet", cfg.Redundancy)
	}
	var layout *fec.Layout
	if cfg.Coding != nil {
		// Capacity changes with the scheme, so the coded layout is
		// re-planned with it.
		lay, err := fec.LayoutFor(capacity, *cfg.Coding)
		if err != nil {
			return fmt.Errorf("core: %w", err)
		}
		layout = &lay
	}
	s.cfg, s.phy, s.capacity, s.layout = cfg, p, capacity, layout
	return nil
}

// Config returns the session's configuration.
func (s *Session) Config() Config { return s.cfg }

// SetQuaternary switches the WiFi translation scheme between quaternary
// (eq. 5, 2 bits/window) and binary (eq. 4) mid-session — the graceful-
// degradation lever freerider.Send pulls when quaternary demapping starts
// taking bit errors. It re-validates the config; the slot counter, RNG
// streams and scrambler rotation are untouched, so fault timelines stay
// aligned across the switch. With coding on, the switch re-plans Layout
// for the new capacity: a chunk encoded under the old layout must be
// re-encoded, not retransmitted.
func (s *Session) SetQuaternary(q bool) error {
	cfg := s.cfg
	cfg.Quaternary = q
	return s.configure(cfg)
}

// Layout returns the coded-chunk layout and true when coding is enabled.
func (s *Session) Layout() (fec.Layout, bool) {
	if s.layout == nil {
		return fec.Layout{}, false
	}
	return *s.layout, true
}

// DataCapacity returns how many payload bits one packet carries after FEC
// overhead; with coding disabled it equals Capacity.
func (s *Session) DataCapacity() int {
	if s.layout != nil {
		return s.layout.DataBits()
	}
	return s.capacity
}

// Capacity returns how many tag bits one excitation packet carries.
func (s *Session) Capacity() int { return s.capacity }

// PacketDuration returns the excitation packet airtime in seconds.
func (s *Session) PacketDuration() float64 { return s.phy.airtime() }

// RunPacket transmits one excitation packet, backscatters tagBits onto it
// and decodes them at the adjacent-channel receiver. Randomness (payload,
// fading, noise) is drawn from the session's sequential RNG, so repeated
// calls advance one shared stream; Run and RunParallel instead derive an
// independent stream per packet. Each call occupies the next packet slot
// of the session's fault timeline (see AdvanceSlots).
func (s *Session) RunPacket(tagBits []byte) (PacketResult, error) {
	slot := s.slot
	s.slot++
	return s.runPacket(tagBits, s.rng, s.rng, true, slot)
}

// AdvanceSlots lets packet-time pass without transmitting: a sender backing
// off for n slots skips that stretch of the fault timeline, which is how
// exponential backoff actually escapes a burst fade. Non-positive n is a
// no-op.
func (s *Session) AdvanceSlots(n int) {
	if n > 0 {
		s.slot += n
	}
}

// capturePool recycles the receiver-side capture buffers (hundreds of KB
// per packet). Decoded frames copy everything they keep — payload bytes,
// bit slices — so a capture can be recycled as soon as its packet's decode
// finishes; RunParallel workers share the Session, hence a shared pool
// rather than Session fields. The GC-stable FreeList (see signal.FreeList)
// keeps steady-state allocation counts deterministic; Cap bounds the
// pinned capture memory to one buffer per plausible worker.
var capturePool = signal.FreeList[*signal.Signal]{New: func() *signal.Signal { return signal.New(0, 0) }, Cap: 32}

// excitationPool recycles the waveform of an uncached WiFi entry (~650 KB
// for a 1500 B packet): nothing outside the packet ever sees such an
// entry, so runPacket releases its waveform here as soon as the channel
// has copied it into the capture (DESIGN §8.2). A separate list from
// capturePool keeps each list's buffers one size, so warm checkouts never
// regrow and the allocation pins stay exact.
var excitationPool = signal.FreeList[*signal.Signal]{New: func() *signal.Signal { return signal.New(wifi.SampleRate, 0) }, Cap: 32}

// link instantiates the configured link for one packet, seeding it from the
// packet's RNG stream and attaching the slot's channel-level faults (nil
// impairment for a clean slot, which keeps the channel on its benign path).
func (s *Session) link(rng *rand.Rand, pf faults.Packet) channel.Link {
	l := s.cfg.Link
	l.Seed = rng.Int63()
	l.Impairment = pf.ChannelImpairment()
	return l
}

// runPacket is RunPacket with explicit randomness sources: content drives
// the packet's payload draws, chanRng its fading and noise draws, and
// sequential picks the session's rotating transmitter state (phy.draw).
// Callers without a content/channel split pass the same generator twice,
// which reproduces the legacy single-stream draw order exactly. slot
// addresses the fault profile; a slot whose excitation is out or whose tag
// reservoir is dry short-circuits to a lost packet before any PHY work —
// and before any rng draw, which is harmless because every packet runs on
// streams other packets never observe.
func (s *Session) runPacket(tagBits []byte, content, chanRng *rand.Rand, sequential bool, slot int) (PacketResult, error) {
	pf := s.cfg.Faults.At(s.cfg.Seed, slot)
	if pf.Outage || pf.SkipReflection {
		// Nothing reaches the receiver: no excitation to ride on (outage)
		// or no charge to reflect with (brownout). Slot time still passes.
		return PacketResult{AirTime: s.PacketDuration(), Fault: pf}, nil
	}
	payload, seed := s.phy.draw(content, sequential)
	entry, err := s.entry(payload, tagBits, seed)
	if err != nil {
		return PacketResult{}, err
	}
	res := PacketResult{AirTime: entry.Airtime, TagBits: entry.Used, Fault: pf}

	rx, samples, err := s.transmit(entry, chanRng, pf)
	if err != nil {
		return PacketResult{}, err
	}
	res.Samples = samples
	if !rx.detected {
		return res, nil
	}
	res.Detected = true
	if rx.obs == nil {
		return res, nil
	}
	return s.decode(res, rx, tagBits)
}

// captureHeadroom is the noise-only margin, in samples, the channel puts
// before and after each packet's waveform in the receiver capture.
const captureHeadroom = 400

// transmit sends one packet's clean waveform through the slot's link into
// a pooled capture and hands that to the phy's receiver, returning what it
// received and the capture's length. The receiver fills the capture as it
// reads it, so the link's noise stream and an uncached entry's buffer stay
// checked out until it returns. The received streams are the receiver's
// own, so the capture is recycled on return.
func (s *Session) transmit(e *waveform.Entry, chanRng *rand.Rand, pf faults.Packet) (received, int, error) {
	cap := capturePool.Get()
	defer capturePool.Put(cap)
	c, err := s.link(chanRng, pf).Begin(cap, e.Wave, captureHeadroom, false, e.MeanPower)
	var rx received
	if err == nil {
		rx = s.phy.receive(cap, c, e)
		c.Release()
	}
	if s.cfg.Waveforms == nil {
		s.phy.release(e)
	}
	if err != nil {
		return received{}, 0, err
	}
	return rx, len(cap.Samples), nil
}

// entry returns the clean backscattered waveform plus decode references for
// one packet's content: replayed from the waveform cache when one is
// attached (synthesised and stored on a miss), else synthesised afresh.
func (s *Session) entry(payload, tagBits []byte, seed byte) (*waveform.Entry, error) {
	c := s.cfg.Waveforms
	if c == nil {
		return s.phy.synthesize(payload, tagBits, seed)
	}
	k := waveform.NewKey().Byte(byte(s.cfg.Radio))
	s.phy.key(k, seed)
	e, _, err := c.GetOrSynthesize(k.Bytes(payload).Bytes(tagBits).Sum(), func() (*waveform.Entry, error) {
		return s.phy.synthesize(payload, tagBits, seed)
	})
	return e, err
}

// decode is the one decode tail: the window decision on the phy's streams
// (compare or differential; 2 bits per window with Quaternary), truncated
// to the res.TagBits bits the tag embedded and scored against tagBits.
func (s *Session) decode(res PacketResult, rx received, tagBits []byte) (PacketResult, error) {
	used := res.TagBits
	single := s.cfg.ReceiverMode == SingleReceiver
	var ws []decoder.WindowResult
	var dropped int
	var err error
	switch {
	case s.cfg.Quaternary && single:
		ws, err = decoder.DecodeDifferentialQuaternaryWindows(rx.obs, rx.window)
	case s.cfg.Quaternary:
		ws, err = decoder.DecodeQuaternaryWindows(rx.ref, rx.obs, rx.window)
	case single:
		ws, err = decoder.DecodeDifferentialWindows(rx.obs, rx.window, SingleThreshold)
	default:
		ws, dropped, err = decoder.DecodeWindows(rx.ref, rx.obs, rx.window, WindowThreshold(s.cfg.Radio))
	}
	if err != nil {
		return PacketResult{}, err
	}
	ws = ws[:min(len(ws), used)]
	res.DecodedTag = decoder.Bits(ws)
	res.Decoded = true
	var berDropped int
	res.BitErrors, _, berDropped = decoder.BER(tagBits[:used], res.DecodedTag)
	res.DroppedElements += dropped + berDropped
	return res, nil
}

// SessionResult aggregates a multi-packet run.
type SessionResult struct {
	Packets        int
	PacketsLost    int
	TagBitsSent    int
	TagBitsDecoded int
	BitErrors      int
	ElapsedSeconds float64
	// SamplesProcessed counts the complex-baseband samples pushed through
	// the receiver chain, for the harness's points/sec metrics.
	SamplesProcessed int64
	// DroppedElements aggregates PacketResult.DroppedElements: stream
	// elements the decoder could not compare because the two sides
	// disagreed on length. Nonzero values flag alignment trouble that was
	// previously truncated away silently.
	DroppedElements int
	// Coded-uplink aggregates (zero unless Config.Coding is set): payload
	// bits recovered after RS correction, residual errors among them,
	// total symbol corrections, and packets where a codeword exceeded the
	// correction radius.
	DataBitsDecoded  int
	DataBitErrors    int
	CorrectedSymbols int
	RSFailures       int
}

// ThroughputBps is the tag goodput: decoded tag bits over elapsed time.
func (r SessionResult) ThroughputBps() float64 {
	if r.ElapsedSeconds <= 0 {
		return 0
	}
	return float64(r.TagBitsDecoded) / r.ElapsedSeconds
}

// BER is the tag bit error rate over decoded bits.
func (r SessionResult) BER() float64 {
	if r.TagBitsDecoded == 0 {
		return 1
	}
	return float64(r.BitErrors) / float64(r.TagBitsDecoded)
}

// CodedBER is the post-correction payload bit error rate (1 when nothing
// was decoded; meaningful only with Config.Coding set).
func (r SessionResult) CodedBER() float64 {
	if r.DataBitsDecoded == 0 {
		return 1
	}
	return float64(r.DataBitErrors) / float64(r.DataBitsDecoded)
}

// LossRate is the fraction of excitation packets whose backscatter copy was
// not decoded.
func (r SessionResult) LossRate() float64 {
	if r.Packets == 0 {
		return 0
	}
	return float64(r.PacketsLost) / float64(r.Packets)
}

// runPacketAtWith runs packet idx of a multi-packet session on its own
// derived RNG stream. The stream — tag data, payload, WiFi scrambler seed,
// fading and noise — depends only on (Config.Seed, idx), never on which
// packets ran before or on which worker this one lands, which is what
// makes Run, RunPacketBatch and RunParallel bit-identical. The caller
// supplies the scratch generators (crng may be nil when no ContentSeed is
// set). Both are fully re-seeded here — Seed re-initialises the whole
// source state, so a recycled generator draws exactly what a fresh
// rand.New(rand.NewSource(seed)) would — which is what lets batch loops
// hoist the pool traffic out of their per-packet loop without changing a
// single draw.
func (s *Session) runPacketAtWith(idx int, rng, crng *rand.Rand) (PacketResult, error) {
	rng.Seed(runner.DeriveSeed(s.cfg.Seed, "core.packet", idx))
	// With a ContentSeed, packet content comes off its own derived stream so
	// sweeps that vary Seed per point still synthesise identical packets;
	// without one, content and channel share the stream in the legacy draw
	// order (content first, then the channel seed), bit for bit.
	content := rng
	if s.cfg.ContentSeed != 0 {
		crng.Seed(runner.DeriveSeed(s.cfg.ContentSeed, "core.content", idx))
		content = crng
	}
	tagBits := make([]byte, s.capacity)
	for j := range tagBits {
		tagBits[j] = byte(content.Intn(2))
	}
	// With coding on, the drawn prefix is the payload and its RS encoding
	// replaces the transmitted head; drawing the full capacity first keeps
	// the content stream's draw count — and everything after it, including
	// the channel realisation — bit-identical to the uncoded session.
	var dataBits []byte
	if s.layout != nil {
		dataBits = append([]byte(nil), tagBits[:s.layout.DataBits()]...)
		coded, err := s.layout.EncodeBits(dataBits)
		if err != nil {
			return PacketResult{}, err
		}
		copy(tagBits, coded)
	}
	pr, err := s.runPacket(tagBits, content, rng, false, idx)
	if err != nil || s.layout == nil {
		return pr, err
	}
	pr.DataBits = s.layout.DataBits()
	if pr.Decoded && len(pr.DecodedTag) >= s.layout.CodedBits() {
		data, corrected, ok := s.layout.DecodeBits(pr.DecodedTag)
		pr.DecodedData = data
		pr.CorrectedSymbols = corrected
		pr.RSFailed = !ok
		var berDropped int
		pr.DataBitErrors, _, berDropped = decoder.BER(dataBits, data)
		pr.DroppedElements += berDropped
	} else if pr.Decoded {
		// Truncated decode: too few windows to cover the coded region.
		pr.RSFailed = true
	}
	return pr, nil
}

func (r *SessionResult) accumulate(pr PacketResult, gap float64) {
	r.Packets++
	r.TagBitsSent += pr.TagBits
	r.ElapsedSeconds += pr.AirTime + gap
	r.SamplesProcessed += int64(pr.Samples)
	r.DroppedElements += pr.DroppedElements
	if !pr.Decoded {
		r.PacketsLost++
		return
	}
	r.TagBitsDecoded += len(pr.DecodedTag)
	r.BitErrors += pr.BitErrors
	if pr.DecodedData != nil {
		r.DataBitsDecoded += len(pr.DecodedData)
		r.DataBitErrors += pr.DataBitErrors
		r.CorrectedSymbols += pr.CorrectedSymbols
	}
	if pr.RSFailed {
		r.RSFailures++
	}
}

// batchSize is the packet count per range in Run: enough to amortise
// a range's setup (RNG pool checkouts, scratch warm-up, plan lookups).
// RunParallel does not batch; see there.
const batchSize = 8

// runPacketRange runs packets [lo, hi) of the derived-stream timeline into
// prs[0:hi-lo] with one set of pooled scratch generators for the whole
// range. Each packet still re-seeds from (Config.Seed, idx) — see
// runPacketAtWith — so the results are bit-identical to running each
// index on freshly checked-out generators.
func (s *Session) runPacketRange(lo, hi int, prs []PacketResult) error {
	rng := signal.RandPool.Get()
	defer signal.RandPool.Put(rng)
	var crng *rand.Rand
	if s.cfg.ContentSeed != 0 {
		crng = signal.RandPool.Get()
		defer signal.RandPool.Put(crng)
	}
	for i := lo; i < hi; i++ {
		pr, err := s.runPacketAtWith(i, rng, crng)
		if err != nil {
			return err
		}
		prs[i-lo] = pr
	}
	return nil
}

// RunPacketBatch synthesises, impairs and decodes the n packets at indices
// start..start+n-1 of the session's derived-stream timeline and returns
// their per-packet results. Every packet draws from its own
// (Config.Seed, index) stream, so the returned slice is bit-identical,
// element for element, to running the serial per-packet loop over the
// same indices — while the batch amortises RNG pool checkouts and keeps
// the scratch arenas, FFT plans and capture buffers hot across
// consecutive packets. With a Waveforms cache attached,
// consecutive identical packets (retransmissions, fixed-content sweeps)
// decode against one cached synthesis.
func (s *Session) RunPacketBatch(start, n int) ([]PacketResult, error) {
	if n < 0 {
		return nil, fmt.Errorf("core: negative batch size %d", n)
	}
	prs := make([]PacketResult, n)
	if err := s.runPacketRange(start, start+n, prs); err != nil {
		return nil, err
	}
	return prs, nil
}

// Run executes n excitation packets with fresh random tag data on each and
// aggregates the results. Packets run in contiguous batchSize ranges
// through RunPacketBatch's amortised loop, each on its own RNG stream
// derived from (Config.Seed, packet index), so the result is exactly what
// RunParallel produces with any worker count.
func (s *Session) Run(n int) (SessionResult, error) {
	if n < 0 {
		return SessionResult{}, fmt.Errorf("core: negative packet count %d", n)
	}
	var out SessionResult
	prs := make([]PacketResult, batchSize)
	for lo := 0; lo < n; lo += batchSize {
		hi := min(lo+batchSize, n)
		if err := s.runPacketRange(lo, hi, prs[:hi-lo]); err != nil {
			return SessionResult{}, err
		}
		for i := range prs[:hi-lo] {
			out.accumulate(prs[i], s.cfg.InterPacketGap)
		}
	}
	return out, nil
}

// RunParallel is Run spread over a bounded worker pool (all cores when
// workers <= 0), one packet per job. Packet costs vary widely (a ZigBee
// scan that finds no frame costs many times one that does), so
// multi-packet jobs would leave a worker idle at the end of a call while
// another finishes its batch. Each packet re-seeds from (Config.Seed,
// index) and results aggregate in index order, so the SessionResult is
// bit-identical to the serial Run for every worker count. On error it
// returns a zero result plus the error the serial loop would have hit
// first: the pool reports the lowest failing job, the lowest failing
// packet.
func (s *Session) RunParallel(n, workers int) (SessionResult, error) {
	if n < 0 {
		return SessionResult{}, fmt.Errorf("core: negative packet count %d", n)
	}
	prs := make([]PacketResult, n)
	if _, err := runner.Map(n, workers, func(i int) error {
		return s.runPacketRange(i, i+1, prs[i:i+1])
	}); err != nil {
		return SessionResult{}, err
	}
	var out SessionResult
	for i := range prs {
		out.accumulate(prs[i], s.cfg.InterPacketGap)
	}
	return out, nil
}
