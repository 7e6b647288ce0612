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
	"math"
	"math/rand"

	"repro/internal/bits"
	"repro/internal/bluetooth"
	"repro/internal/channel"
	"repro/internal/decoder"
	"repro/internal/faults"
	"repro/internal/fec"
	"repro/internal/runner"
	"repro/internal/signal"
	"repro/internal/tag"
	"repro/internal/waveform"
	"repro/internal/wifi"
	"repro/internal/zigbee"
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

	// PayloadSize is the excitation packet payload in bytes.
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
	// SoftDecision upgrades the WiFi receiver to LLR-based Viterbi
	// decoding (~2 dB coding gain), showing what a better-than-commodity
	// decoder would buy the backscatter link. Off by default to keep the
	// calibrated budgets comparable.
	SoftDecision bool
	// DetectionThreshold overrides the receiver's packet-detection
	// threshold; zero selects the per-radio calibrated default, which
	// mimics commodity-chip sensitivity (see EXPERIMENTS.md §calibration).
	DetectionThreshold float64
	// Faults attaches a fault-injection profile: each packet slot runs
	// under faults.Profile.At(Seed, slot). Nil disables fault injection
	// and leaves every code path bit-identical to a fault-free build.
	Faults *faults.Profile
	// Coding enables the Reed-Solomon coded tag uplink: each packet's
	// chunk is RS-encoded per the config (shortened to the packet's
	// capacity), the decoder emits per-bit int16 soft decisions
	// (PacketResult.SoftTag), and Run/RunParallel report post-correction
	// payload statistics alongside the raw channel BER. Nil keeps the
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
	// separate capture buffer (Link.ApplyTo never writes its source), which
	// is what makes sharing across sessions and goroutines safe. Nil
	// disables caching and leaves every result bit-identical either way.
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
// correlation below which a commodity chip misses the packet.
const (
	wifiDetectionThreshold = 0.72 // periodicity metric; fails below ~4 dB instantaneous SNR
	zbDetectionThreshold   = 0.85 // fails below ~4.3 dB
	btDetectionThreshold   = 0.81 // fails below ~3 dB
)

// Single-receiver (differential) decision constants.
const (
	// singleThreshold slices the window-to-window disagreement fraction.
	// All three flip features are symmetric binary estimates (a flipped
	// unit looks like the complement of an unflipped one), so the midpoint
	// is the maximum-likelihood threshold for every radio — unlike the
	// dual ZigBee path, whose mismatch fraction saturates at the
	// codebook's confusion floor rather than 1.
	singleThreshold = 0.5
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

func (c Config) detectionThreshold(def float64) float64 {
	if c.DetectionThreshold > 0 {
		return c.DetectionThreshold
	}
	return def
}

// DefaultConfig returns the calibrated defaults for a radio at the given
// tag-to-receiver distance (TX-to-tag 1 m, LOS, as in §4.1).
func DefaultConfig(r Radio, tagToRx float64) Config {
	cfg := Config{Radio: r, Redundancy: 4, InterPacketGap: 100e-6, Seed: 1}
	switch r {
	case WiFi:
		cfg.PayloadSize = 1500
		cfg.WiFiRateMbps = 6
		cfg.Link = channel.Link{
			Deployment: channel.LOS,
			TxPowerDBm: 11,
			SystemGain: channel.DefaultSystemGainDB,
			TagLossDB:  channel.DefaultTagLossDB,
			TxToTag:    1,
			TagToRx:    tagToRx,
			NoiseFloor: channel.NoiseFloorFor(20e6, 6),
			FadingK:    4, // Rician, strong LOS component
			Seed:       1,
		}
	case ZigBee:
		cfg.PayloadSize = 100
		cfg.Redundancy = 4
		cfg.InterPacketGap = 192e-6 // 802.15.4 turnaround
		cfg.Link = channel.Link{
			Deployment: channel.LOS,
			TxPowerDBm: 5,
			// 4 dB below the WiFi rig: the CC2650's PCB antenna path (the
			// RSSI anchor is Fig 12c's -97 dBm at 22 m).
			SystemGain: channel.DefaultSystemGainDB - 4,
			TagLossDB:  channel.DefaultTagLossDB,
			TxToTag:    1,
			TagToRx:    tagToRx,
			NoiseFloor: channel.NoiseFloorFor(2e6, 10),
			FadingK:    4,
			Seed:       1,
		}
	case Bluetooth:
		cfg.PayloadSize = 255
		cfg.Redundancy = 16
		cfg.InterPacketGap = 150e-6 // T_IFS
		cfg.Link = channel.Link{
			Deployment: channel.LOS,
			TxPowerDBm: 0,
			// 7 dB below the WiFi rig (anchor: Fig 13c's -100 dBm at 12 m).
			SystemGain: channel.DefaultSystemGainDB - 7,
			TagLossDB:  channel.DefaultTagLossDB,
			TxToTag:    1,
			TagToRx:    tagToRx,
			NoiseFloor: channel.NoiseFloorFor(1e6, 12),
			FadingK:    4,
			Seed:       1,
		}
	}
	return cfg
}

// PacketResult reports one excitation packet's backscatter outcome.
type PacketResult struct {
	Detected   bool    // adjacent-channel receiver found the packet
	Decoded    bool    // tag windows were extracted
	TagBits    int     // tag bits embedded by the tag
	BitErrors  int     // decoded tag bits differing from the sent bits
	RSSI       float64 // backscatter RSSI at the receiver, dBm
	AirTime    float64 // excitation packet duration, seconds
	Samples    int     // complex-baseband samples in the receiver capture
	DecodedTag []byte  // the decoded tag bits (nil when not decoded)
	// SoftTag carries the decoder's per-bit int16 soft decisions aligned
	// with DecodedTag (positive → 0, negative → 1, |s| the margin; see
	// decoder.SoftScale). Populated when Config.Coding is set, and always
	// in single-receiver mode (a new path with no allocation pins to
	// preserve) — the uncoded dual fast path stays allocation-identical
	// to earlier builds.
	SoftTag []int16
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

	wifiTX *wifi.Transmitter
	zbTX   *zigbee.Transmitter
	btTX   *bluetooth.Transmitter

	// layout is the coded-chunk geometry for the current scheme, non-nil
	// iff Config.Coding is set. Recomputed by SetQuaternary (capacity
	// changes with the scheme); read-only during runs, so RunParallel
	// workers share it safely.
	layout *fec.Layout
}

func validate(cfg Config) error {
	switch cfg.Radio {
	case WiFi:
		r, ok := wifi.Rates[cfg.WiFiRateMbps]
		if !ok {
			return fmt.Errorf("core: unknown wifi rate %d Mbps", cfg.WiFiRateMbps)
		}
		if r.Modulation != wifi.BPSK && r.Modulation != wifi.QPSK {
			return fmt.Errorf("core: 180° codeword translation needs BPSK/QPSK subcarriers; %d Mbps uses %v", cfg.WiFiRateMbps, r.Modulation)
		}
		if cfg.Quaternary && r.Modulation != wifi.QPSK {
			return fmt.Errorf("core: quaternary (eq. 5) translation needs QPSK; %d Mbps uses %v", cfg.WiFiRateMbps, r.Modulation)
		}
	case ZigBee, Bluetooth:
		if cfg.Quaternary {
			return fmt.Errorf("core: quaternary translation is only implemented for WiFi")
		}
	default:
		return fmt.Errorf("core: unknown radio %v", cfg.Radio)
	}
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
	if cfg.PayloadSize <= 0 {
		return fmt.Errorf("core: payload size %d must be positive", cfg.PayloadSize)
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
	if err := validate(cfg); err != nil {
		return nil, err
	}
	s := &Session{
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		wifiTX: wifi.NewTransmitter(),
		zbTX:   zigbee.NewTransmitter(),
		btTX:   bluetooth.NewTransmitter(),
	}
	if cfg.Coding != nil {
		lay, err := fec.LayoutFor(s.Capacity(), *cfg.Coding)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		s.layout = &lay
	}
	return s, nil
}

// Config returns the session's configuration.
func (s *Session) Config() Config { return s.cfg }

// SetQuaternary switches the WiFi translation scheme between quaternary
// (eq. 5, 2 bits/window) and binary (eq. 4) mid-session — the graceful-
// degradation lever freerider.Send pulls when quaternary demapping starts
// taking bit errors. It re-validates the config; the slot counter and RNG
// streams are untouched, so fault timelines stay aligned across the switch.
func (s *Session) SetQuaternary(q bool) error {
	cfg := s.cfg
	cfg.Quaternary = q
	if err := validate(cfg); err != nil {
		return err
	}
	oldCfg, oldLayout := s.cfg, s.layout
	s.cfg = cfg
	if cfg.Coding != nil {
		// Capacity changes with the scheme, so the coded layout must be
		// re-planned; soft values accumulated under the old scheme no
		// longer align (callers reset their combiners — see fec.Combiner).
		lay, err := fec.LayoutFor(s.Capacity(), *cfg.Coding)
		if err != nil {
			s.cfg, s.layout = oldCfg, oldLayout
			return fmt.Errorf("core: %w", err)
		}
		s.layout = &lay
	}
	return nil
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
	return s.Capacity()
}

// Capacity returns how many tag bits one excitation packet carries.
func (s *Session) Capacity() int {
	return s.translator().Capacity(s.PacketDuration())
}

// PacketDuration returns the excitation packet airtime in seconds.
func (s *Session) PacketDuration() float64 {
	switch s.cfg.Radio {
	case WiFi:
		return wifi.PacketDuration(s.cfg.PayloadSize+4, wifi.Rates[s.cfg.WiFiRateMbps])
	case ZigBee:
		return zigbee.FrameDuration(s.cfg.PayloadSize)
	case Bluetooth:
		return bluetooth.FrameDuration(s.cfg.PayloadSize)
	}
	return 0
}

func (s *Session) translator() tag.Translator {
	switch s.cfg.Radio {
	case WiFi:
		return s.wifiTranslator()
	case ZigBee:
		hdrSymbols := float64(zigbee.PreambleSymbols + 2 + 2) // preamble + SFD + length
		symPeriod := 1.0 / zigbee.SymbolRate
		return &tag.PhaseTranslator{
			DataStart:     hdrSymbols * symPeriod,
			SymbolPeriod:  symPeriod,
			SymbolsPerBit: s.cfg.Redundancy,
			DeltaTheta:    math.Pi,
			BitsPerStep:   1,
			// The envelope latency (0.35 µs) is negligible against the
			// 16 µs OQPSK symbol but is modelled anyway.
			Latency: tag.EnvelopeLatency,
		}
	case Bluetooth:
		return &tag.FreqTranslator{
			DataStart:     40.0 / bluetooth.BitRate, // preamble + access address
			BitPeriod:     1.0 / bluetooth.BitRate,
			BitsPerTagBit: s.cfg.Redundancy,
			ToggleHz:      bluetooth.CodewordDelta,
			Latency:       tag.EnvelopeLatency,
		}
	}
	return nil
}

// wifiTranslator is the WiFi tag's phase translator. Modulation starts
// after preamble + SIGNAL + the first DATA symbol: that symbol carries the
// SERVICE field, from which the receiver recovers the scrambler seed.
// Flipping it would corrupt descrambling of the whole packet (§3.2.1's
// scrambler discussion), so the tag leaves it untouched.
func (s *Session) wifiTranslator() *tag.PhaseTranslator {
	tr := &tag.PhaseTranslator{
		DataStart:     float64(wifi.PreambleLen)/wifi.SampleRate + 2*wifi.SymbolTime,
		SymbolPeriod:  wifi.SymbolTime,
		SymbolsPerBit: s.cfg.Redundancy,
		DeltaTheta:    math.Pi,
		BitsPerStep:   1,
		Latency:       tag.EnvelopeLatency,
	}
	if s.cfg.Quaternary {
		tr.DeltaTheta = math.Pi / 2
		tr.BitsPerStep = 2
	}
	return tr
}

// RunPacket transmits one excitation packet, backscatters tagBits onto it
// and decodes them at the adjacent-channel receiver. Randomness (payload,
// fading, noise) is drawn from the session's sequential RNG, so repeated
// calls advance one shared stream; Run and RunParallel instead derive an
// independent stream per packet. Each call occupies the next packet slot
// of the session's fault timeline (see AdvanceSlots).
func (s *Session) RunPacket(tagBits []byte) (PacketResult, error) {
	slot := s.slot
	s.slot++
	return s.runPacket(tagBits, s.rng, s.rng, s.wifiTX, slot)
}

// Slot returns the next packet slot RunPacket will occupy.
func (s *Session) Slot() int { return s.slot }

// AdvanceSlots lets packet-time pass without transmitting: a sender backing
// off for n slots skips that stretch of the fault timeline, which is how
// exponential backoff actually escapes a burst fade. Non-positive n is a
// no-op.
func (s *Session) AdvanceSlots(n int) {
	if n > 0 {
		s.slot += n
	}
}

// runPacket is RunPacket with explicit randomness sources: content drives
// the packet's payload draws, chanRng its fading and noise draws, and wtx
// supplies the WiFi scrambler state (the one per-packet mutable piece of
// transmitter state). Callers without a content/channel split pass the same
// generator twice, which reproduces the legacy single-stream draw order
// exactly. slot addresses the fault profile; a slot whose excitation is out
// or whose tag reservoir is dry short-circuits to a lost packet before any
// PHY work — and before any rng draw, which is harmless because every
// packet runs on streams other packets never observe.
func (s *Session) runPacket(tagBits []byte, content, chanRng *rand.Rand, wtx *wifi.Transmitter, slot int) (PacketResult, error) {
	pf := s.cfg.Faults.At(s.cfg.Seed, slot)
	if pf.Outage || pf.SkipReflection {
		// Nothing reaches the receiver: no excitation to ride on (outage)
		// or no charge to reflect with (brownout). Slot time still passes.
		return PacketResult{AirTime: s.PacketDuration(), Fault: pf}, nil
	}
	switch s.cfg.Radio {
	case WiFi:
		return s.runWiFi(tagBits, content, chanRng, wtx, pf)
	case ZigBee:
		return s.runZigBee(tagBits, content, chanRng, pf)
	case Bluetooth:
		return s.runBluetooth(tagBits, content, chanRng, pf)
	}
	return PacketResult{}, fmt.Errorf("core: unknown radio %v", s.cfg.Radio)
}

func randomPayload(rng *rand.Rand, n int) []byte {
	out := make([]byte, n)
	rng.Read(out)
	return out
}

// wifiPSDU builds a genuine 802.11 data MPDU whose total PSDU size equals
// PayloadSize+4 (matching the raw-payload sizing the calibration uses).
// The frame body is the productive traffic the excitation carries.
func (s *Session) wifiPSDU(rng *rand.Rand) []byte {
	bodyLen := s.cfg.PayloadSize - 24
	if bodyLen < 0 {
		bodyLen = 0
	}
	f := &wifi.DataFrame{
		FrameControl: wifi.FrameControlData,
		DurationID:   44,
		Addr1:        [6]byte{0x02, 0x00, 0x00, 0x00, 0x00, 0x01},
		Addr2:        [6]byte{0x02, 0x00, 0x00, 0x00, 0x00, 0x02},
		Addr3:        [6]byte{0x02, 0x00, 0x00, 0x00, 0x00, 0x03},
		SeqCtrl:      uint16(rng.Intn(1<<12) << 4),
		Body:         randomPayload(rng, bodyLen),
	}
	return f.Marshal()
}

// zigbeeMPDU builds a genuine 802.15.4 data MPDU (MHR + body) of
// PayloadSize total bytes, carrying productive traffic.
func (s *Session) zigbeeMPDU(rng *rand.Rand) []byte {
	bodyLen := s.cfg.PayloadSize - 9
	if bodyLen < 0 {
		bodyLen = 0
	}
	f := &zigbee.DataFrame{
		Seq:     byte(rng.Intn(256)),
		DstPAN:  0x1234,
		DstAddr: 0x0001,
		SrcAddr: 0x0002,
		Payload: randomPayload(rng, bodyLen),
	}
	return f.Marshal()
}

// capturePool recycles the receiver-side capture buffers (hundreds of KB
// per packet). Decoded frames copy everything they keep — payload bytes,
// bit slices — so a capture can be recycled as soon as its packet's decode
// finishes; RunParallel workers share the Session, hence a shared pool
// rather than Session fields. The GC-stable FreeList (see signal.FreeList)
// keeps steady-state allocation counts deterministic; Cap bounds the
// pinned capture memory to one buffer per plausible worker.
var capturePool = signal.FreeList[*signal.Signal]{New: func() *signal.Signal { return signal.New(0, 0) }, Cap: 32}

// packetRNGPool recycles the per-packet RNGs RunParallel's derived streams
// use (the default source carries a ~5 KB state table).
var packetRNGPool = signal.FreeList[*rand.Rand]{New: func() *rand.Rand { return rand.New(rand.NewSource(0)) }}

// excitationPool recycles the waveform of an uncached WiFi entry (~650 KB
// for a 1500 B packet): nothing outside the packet ever sees such an
// entry, so runWiFi returns its waveform here as soon as the channel has
// copied it into the capture (DESIGN §8.2). A separate list from
// capturePool keeps each list's buffers one size, so warm checkouts never
// regrow and the allocation pins stay exact.
var excitationPool = signal.FreeList[*signal.Signal]{New: func() *signal.Signal { return signal.New(wifi.SampleRate, 0) }, Cap: 32}

// link instantiates the configured link for one packet, seeding it from the
// packet's RNG stream and attaching the slot's channel-level faults (nil
// impairment for a clean slot, which keeps Apply on its benign path).
func (s *Session) link(rng *rand.Rand, pf faults.Packet) channel.Link {
	l := s.cfg.Link
	l.Seed = rng.Int63()
	l.Impairment = pf.Impairment()
	return l
}

// wifiEntry returns the clean backscattered waveform plus decode references
// for one WiFi packet's content, either replayed from the waveform cache or
// synthesised (and, with a cache attached, stored for the next identical
// packet). A cache hit must still advance wtx's scrambler rotation so the
// transmitter's seed sequence is identical to the uncached path.
func (s *Session) wifiEntry(psdu, tagBits []byte, rate wifi.Rate, wtx *wifi.Transmitter) (*waveform.Entry, error) {
	scramblerSeed := wtx.ScramblerSeed
	c := s.cfg.Waveforms
	if c == nil {
		exc := excitationPool.Get()
		e, err := s.synthesizeWiFi(exc, psdu, tagBits, rate, wtx, scramblerSeed)
		if err != nil {
			excitationPool.Put(exc)
		}
		return e, err
	}
	key := waveform.NewKey().
		Byte(byte(WiFi)).
		Uint64(uint64(s.cfg.WiFiRateMbps)).
		Uint64(uint64(s.cfg.Redundancy)).
		Bool(s.cfg.Quaternary).
		Byte(scramblerSeed).
		Bytes(psdu).
		Bytes(tagBits).
		Sum()
	e, synthesized, err := c.GetOrSynthesize(key, func() (*waveform.Entry, error) {
		return s.synthesizeWiFi(signal.New(wifi.SampleRate, 0), psdu, tagBits, rate, wtx, scramblerSeed)
	})
	if err != nil {
		return nil, err
	}
	if !synthesized {
		// Served from cache or a concurrent leader's synthesis: Transmit
		// never ran here, so replay its scrambler-seed rotation to keep the
		// transmitter's seed sequence identical to the uncached path.
		wtx.AdvanceScramblerSeed()
	}
	return e, nil
}

// synthesizeWiFi runs the full WiFi TX chain for one packet's content into
// exc — excitation, tag translation and channel shift all in place — and
// packages the result as an entry whose Wave is exc. scramblerSeed is the
// seed wtx held before TransmitTo advanced it — the CodedRef rebuild must
// use the same one.
func (s *Session) synthesizeWiFi(exc *signal.Signal, psdu, tagBits []byte, rate wifi.Rate, wtx *wifi.Transmitter, scramblerSeed byte) (*waveform.Entry, error) {
	if err := wtx.TransmitTo(exc, psdu, rate); err != nil {
		return nil, err
	}
	used, err := s.wifiTranslator().TranslateInPlace(exc, tagBits)
	if err != nil {
		return nil, err
	}
	sh := tag.ChannelShifter{OffsetHz: 20e6, Mode: tag.ShiftEquivalentBaseband}
	if _, err := sh.Shift(exc); err != nil {
		return nil, err
	}
	// Reference stream: descrambled SERVICE + PSDU + tail + pad, which
	// is what receiver 1 reports over the backhaul.
	nSym := wifi.NumDataSymbols(len(psdu), rate)
	ref := make([]byte, nSym*rate.NDBPS)
	copy(ref[wifi.ServiceBits:], bits.FromBytes(psdu))
	e := &waveform.Entry{
		Wave:      exc,
		MeanPower: exc.MeanPower(),
		Used:      used,
		Airtime:   exc.Duration(),
		Ref:       ref,
	}
	if s.cfg.Quaternary {
		// eq. 5 needs the interleaved coded stream; rebuild it once at
		// synthesis time so cache hits skip it along with the TX chain.
		e.CodedRef, err = wifi.CodedBits(psdu, rate, scramblerSeed)
		if err != nil {
			return nil, err
		}
	}
	return e, nil
}

func (s *Session) runWiFi(tagBits []byte, content, chanRng *rand.Rand, wtx *wifi.Transmitter, pf faults.Packet) (PacketResult, error) {
	rate := wifi.Rates[s.cfg.WiFiRateMbps]
	psdu := s.wifiPSDU(content)
	entry, err := s.wifiEntry(psdu, tagBits, rate, wtx)
	if err != nil {
		return PacketResult{}, err
	}
	used := entry.Used
	res := PacketResult{AirTime: entry.Airtime, TagBits: used, Fault: pf}

	cap := capturePool.Get()
	defer capturePool.Put(cap)
	err = s.link(chanRng, pf).ApplyToWithPower(cap, entry.Wave, 400, false, entry.MeanPower)
	if s.cfg.Waveforms == nil {
		// The capture holds its own copy now; the uncached excitation is
		// dead (DESIGN §8.2).
		excitationPool.Put(entry.Wave)
		entry.Wave = nil
	}
	if err != nil {
		return PacketResult{}, err
	}
	res.Samples = len(cap.Samples)

	rx := wifi.NewReceiver()
	rx.DetectionThreshold = s.cfg.detectionThreshold(wifiDetectionThreshold)
	rx.PilotPhaseTracking = s.cfg.PilotPhaseTracking
	rx.SoftDecision = s.cfg.SoftDecision
	rx.CollectPilotPhases = s.cfg.ReceiverMode == SingleReceiver
	// The session reports the link budget's backscatter RSSI (below), never
	// the capture measurement, so skip that full-packet power pass.
	rx.SkipRSSI = true
	pkt, err := rx.Receive(cap)
	if err != nil {
		return res, nil // undetected: lost packet, not a session error
	}
	res.Detected = true
	res.RSSI = s.cfg.Link.BackscatterRSSI()
	if len(pkt.PSDU) != len(psdu) {
		return res, nil // header decoded to a wrong length; treat as loss
	}
	if s.cfg.ReceiverMode == SingleReceiver {
		return s.decodeWiFiSingle(res, pkt, tagBits, used)
	}
	// Tag windows start one OFDM symbol into the data (the SERVICE symbol
	// is reflected unmodified; see translator()).
	if s.cfg.Quaternary {
		// eq. 5: rotation hypotheses on the raw demapped coded bits.
		if len(pkt.DemappedBits) <= rate.NCBPS {
			return res, nil
		}
		qws, err := decoder.DecodeQuaternaryWindows(
			entry.CodedRef[rate.NCBPS:], pkt.DemappedBits[rate.NCBPS:],
			s.cfg.Redundancy*rate.NCBPS)
		if err != nil {
			return PacketResult{}, err
		}
		decoded := decoder.QuaternaryBits(qws)
		if len(decoded) > used {
			decoded = decoded[:used]
		}
		res.Decoded = true
		res.DecodedTag = decoded
		var berDropped int
		res.BitErrors, _, berDropped = decoder.BER(tagBits[:used], decoded)
		res.DroppedElements += berDropped
		if s.cfg.Coding != nil {
			soft := decoder.QuaternarySoft(qws)
			if len(soft) > used {
				soft = soft[:used]
			}
			res.SoftTag = soft
		}
		return res, nil
	}
	window := s.cfg.Redundancy * rate.NDBPS
	if len(pkt.RawBits) <= rate.NDBPS {
		return res, nil
	}
	ws, dropped, err := decoder.DecodeWindows(entry.Ref[rate.NDBPS:], pkt.RawBits[rate.NDBPS:], window, 0.5)
	if err != nil {
		return PacketResult{}, err
	}
	res.DroppedElements += dropped
	if len(ws) > used {
		ws = ws[:used]
	}
	res.Decoded = true
	res.DecodedTag = decoder.Bits(ws)
	var berDropped int
	res.BitErrors, _, berDropped = decoder.BER(tagBits[:used], res.DecodedTag)
	res.DroppedElements += berDropped
	if s.cfg.Coding != nil {
		res.SoftTag = decoder.Soft(ws)
	}
	return res, nil
}

// decodeWiFiSingle is the Double-decker decision for WiFi: the receiver's
// per-symbol pilot-correlation phases are an absolute estimate of the
// tag's applied rotation. PilotPhases[0] is the SERVICE symbol — reflected
// untranslated (see translator()), it anchors the all-zero state the
// differential decoder assumes before window 0, and the tag windows start
// at index 1. The effective window is Redundancy features instead of the
// dual path's Redundancy·NDBPS bits — the heart of the single-receiver
// sensitivity cost the BER-vs-SNR experiment measures.
//
// The raw phases carry a slowly accumulating common phase error on top of
// the tag rotation (the tag's phase jumps bias the receiver's CP-based
// residual-CFO estimate, leaving a drift of ~0.01 rad/symbol that crosses
// a quantisation boundary mid-packet). Quantising the absolute phase
// directly would hand that drift to the differential decoder as a slow
// parade of false transitions, so the feature extractor runs a
// decision-directed tracker first: the residual after removing the nearest
// rotation hypothesis is rotation-independent, and an EWMA of it estimates
// the drift, which is subtracted before quantising. Drift per symbol is
// orders of magnitude below the π/4 (binary: π/2) decision radius, so the
// tracker cannot lose lock to the tag's own steps.
func (s *Session) decodeWiFiSingle(res PacketResult, pkt *wifi.RxPacket, tagBits []byte, used int) (PacketResult, error) {
	if len(pkt.PilotPhases) <= 1 {
		return res, nil
	}
	feat := make([]byte, len(pkt.PilotPhases)-1)
	if s.cfg.Quaternary {
		var cpe float64
		for i, p := range pkt.PilotPhases {
			// Quantise to quarter turns: the eq. 5 rotation index.
			q := wrapPhase(p - cpe)
			n := math.Round(q / (math.Pi / 2))
			cpe = wrapPhase(cpe + cpeGain*(q-n*(math.Pi/2)))
			if i > 0 {
				feat[i-1] = byte(int(n) & 3)
			}
		}
		qws, err := decoder.DecodeDifferentialQuaternaryWindows(feat, s.cfg.Redundancy)
		if err != nil {
			return PacketResult{}, err
		}
		decoded := decoder.QuaternaryBits(qws)
		soft := decoder.QuaternarySoft(qws)
		if len(decoded) > used {
			decoded = decoded[:used]
			soft = soft[:used]
		}
		res.Decoded = true
		res.DecodedTag = decoded
		res.SoftTag = soft
		var berDropped int
		res.BitErrors, _, berDropped = decoder.BER(tagBits[:used], decoded)
		res.DroppedElements += berDropped
		return res, nil
	}
	var cpe float64
	for i, p := range pkt.PilotPhases {
		q := wrapPhase(p - cpe)
		n := math.Round(q / math.Pi)
		cpe = wrapPhase(cpe + cpeGain*(q-n*math.Pi))
		if i > 0 && math.Abs(q) > math.Pi/2 {
			feat[i-1] = 1
		}
	}
	ws, err := decoder.DecodeDifferentialWindows(feat, s.cfg.Redundancy, singleThreshold)
	if err != nil {
		return PacketResult{}, err
	}
	if len(ws) > used {
		ws = ws[:used]
	}
	res.Decoded = true
	res.DecodedTag = decoder.Bits(ws)
	res.SoftTag = decoder.Soft(ws)
	var berDropped int
	res.BitErrors, _, berDropped = decoder.BER(tagBits[:used], res.DecodedTag)
	res.DroppedElements += berDropped
	return res, nil
}

// zigbeeEntry returns the clean backscattered waveform plus the symbol
// reference for one ZigBee packet's content, cached when a cache is
// attached. The ZigBee transmitter is stateless, so a hit skips the whole
// synthesis path with nothing to replay.
func (s *Session) zigbeeEntry(payload, tagBits []byte) (*waveform.Entry, error) {
	c := s.cfg.Waveforms
	if c == nil {
		return s.synthesizeZigBee(payload, tagBits)
	}
	key := waveform.NewKey().
		Byte(byte(ZigBee)).
		Uint64(uint64(s.cfg.Redundancy)).
		Bytes(payload).
		Bytes(tagBits).
		Sum()
	e, _, err := c.GetOrSynthesize(key, func() (*waveform.Entry, error) {
		return s.synthesizeZigBee(payload, tagBits)
	})
	return e, err
}

// synthesizeZigBee runs the full ZigBee TX chain for one packet's content
// and packages the result as a cache entry.
func (s *Session) synthesizeZigBee(payload, tagBits []byte) (*waveform.Entry, error) {
	exc, err := s.zbTX.Transmit(payload)
	if err != nil {
		return nil, err
	}
	backscattered, used, err := s.translator().Translate(exc, tagBits)
	if err != nil {
		return nil, err
	}
	sh := tag.ChannelShifter{OffsetHz: 16e6, Mode: tag.ShiftEquivalentBaseband}
	if _, err := sh.Shift(backscattered); err != nil {
		return nil, err
	}
	fcs := bits.CRC16CCITT(payload)
	body := append(append([]byte(nil), payload...), byte(fcs), byte(fcs>>8))
	return &waveform.Entry{
		Wave:      backscattered,
		MeanPower: backscattered.MeanPower(),
		Used:      used,
		Airtime:   exc.Duration(),
		Ref:       zigbee.SymbolsFromBytes(body),
	}, nil
}

func (s *Session) runZigBee(tagBits []byte, content, chanRng *rand.Rand, pf faults.Packet) (PacketResult, error) {
	payload := s.zigbeeMPDU(content)
	entry, err := s.zigbeeEntry(payload, tagBits)
	if err != nil {
		return PacketResult{}, err
	}
	used := entry.Used
	res := PacketResult{AirTime: entry.Airtime, TagBits: used, Fault: pf}

	cap := capturePool.Get()
	defer capturePool.Put(cap)
	if err := s.link(chanRng, pf).ApplyToWithPower(cap, entry.Wave, 400, false, entry.MeanPower); err != nil {
		return PacketResult{}, err
	}
	res.Samples = len(cap.Samples)

	zrx := zigbee.NewReceiver()
	zrx.DetectionThreshold = s.cfg.detectionThreshold(zbDetectionThreshold)
	zrx.CollectFlips = s.cfg.ReceiverMode == SingleReceiver
	frame, err := zrx.Receive(cap)
	if err != nil {
		return res, nil
	}
	res.Detected = true
	res.RSSI = s.cfg.Link.BackscatterRSSI()
	if len(frame.Symbols) != len(entry.Ref) {
		return res, nil
	}
	if s.cfg.ReceiverMode == SingleReceiver {
		// Double-decker: each payload symbol's flip feature asks whether
		// the chip window correlated better with the complemented codebook
		// than the true one (see zigbee.BestWorstSymbol) — a clean binary
		// estimate of the tag's absolute flip state, one per symbol.
		ws, err := decoder.DecodeDifferentialWindows(frame.Flips, s.cfg.Redundancy, singleThreshold)
		if err != nil {
			return PacketResult{}, err
		}
		if len(ws) > used {
			ws = ws[:used]
		}
		res.Decoded = true
		res.DecodedTag = decoder.Bits(ws)
		res.SoftTag = decoder.Soft(ws)
		var berDropped int
		res.BitErrors, _, berDropped = decoder.BER(tagBits[:used], res.DecodedTag)
		res.DroppedElements += berDropped
		return res, nil
	}
	ws, dropped, err := decoder.DecodeWindows(entry.Ref, frame.Symbols, s.cfg.Redundancy, 0.3)
	if err != nil {
		return PacketResult{}, err
	}
	res.DroppedElements += dropped
	if len(ws) > used {
		ws = ws[:used]
	}
	res.Decoded = true
	res.DecodedTag = decoder.Bits(ws)
	var berDropped int
	res.BitErrors, _, berDropped = decoder.BER(tagBits[:used], res.DecodedTag)
	res.DroppedElements += berDropped
	if s.cfg.Coding != nil {
		res.SoftTag = decoder.Soft(ws)
	}
	return res, nil
}

// bluetoothEntry returns the clean backscattered waveform plus the frame
// bit reference for one Bluetooth packet's content, cached when a cache is
// attached. The whitening seed is static per session but shapes the
// waveform, so it participates in the key.
func (s *Session) bluetoothEntry(payload, tagBits []byte) (*waveform.Entry, error) {
	c := s.cfg.Waveforms
	if c == nil {
		return s.synthesizeBluetooth(payload, tagBits)
	}
	key := waveform.NewKey().
		Byte(byte(Bluetooth)).
		Uint64(uint64(s.cfg.Redundancy)).
		Byte(s.btTX.WhitenSeed).
		Bytes(payload).
		Bytes(tagBits).
		Sum()
	e, _, err := c.GetOrSynthesize(key, func() (*waveform.Entry, error) {
		return s.synthesizeBluetooth(payload, tagBits)
	})
	return e, err
}

// synthesizeBluetooth runs the full Bluetooth TX chain for one packet's
// content and packages the result as a cache entry.
func (s *Session) synthesizeBluetooth(payload, tagBits []byte) (*waveform.Entry, error) {
	exc, err := s.btTX.Transmit(payload)
	if err != nil {
		return nil, err
	}
	ref, err := s.btTX.FrameBits(payload)
	if err != nil {
		return nil, err
	}
	// The Bluetooth tag's codeword toggle already runs through the real
	// square-wave mixer inside the translator; the channel hop to
	// 2.48 GHz is folded into TagLossDB like the others, so no shifter
	// here.
	backscattered, used, err := s.translator().Translate(exc, tagBits)
	if err != nil {
		return nil, err
	}
	return &waveform.Entry{
		Wave:      backscattered,
		MeanPower: backscattered.MeanPower(),
		Used:      used,
		Airtime:   exc.Duration(),
		Ref:       ref,
	}, nil
}

func (s *Session) runBluetooth(tagBits []byte, content, chanRng *rand.Rand, pf faults.Packet) (PacketResult, error) {
	payload := randomPayload(content, s.cfg.PayloadSize)
	entry, err := s.bluetoothEntry(payload, tagBits)
	if err != nil {
		return PacketResult{}, err
	}
	used := entry.Used
	ref := entry.Ref
	res := PacketResult{AirTime: entry.Airtime, TagBits: used, Fault: pf}

	cap := capturePool.Get()
	defer capturePool.Put(cap)
	if err := s.link(chanRng, pf).ApplyToWithPower(cap, entry.Wave, 400, false, entry.MeanPower); err != nil {
		return PacketResult{}, err
	}
	res.Samples = len(cap.Samples)

	rx := bluetooth.NewReceiver()
	rx.DetectionThreshold = s.cfg.detectionThreshold(btDetectionThreshold)
	rx.CollectPower = s.cfg.ReceiverMode == SingleReceiver
	// One channel-filter + discriminator pass answers both the sync
	// detection and the raw bit slicing.
	demod := rx.Demod(cap)
	start, q := demod.Detect()
	if start < 0 || q < rx.DetectionThreshold {
		return res, nil
	}
	res.Detected = true
	res.RSSI = s.cfg.Link.BackscatterRSSI()

	const hdr = 40 // tag modulation starts after preamble + access address
	if s.cfg.ReceiverMode == SingleReceiver {
		// Double-decker: a flipped bit's FSK tone is toggled out to a
		// sideband the ±500 kHz channel filter mostly rejects, so its
		// filtered in-band power drops to ≈(2/π)² of an unflipped bit's.
		// The 40 untranslated header bits self-calibrate the reference
		// power — no second receiver, and no absolute power knowledge.
		powers := demod.BitPowers(start, len(ref))
		if len(powers) < len(ref) {
			return res, nil
		}
		refPower := 0.0
		for _, p := range powers[:hdr] {
			refPower += p
		}
		refPower /= hdr
		if refPower <= 0 {
			return res, nil
		}
		feat := make([]byte, len(ref)-hdr)
		for i, p := range powers[hdr:] {
			if p < btSinglePowerRatio*refPower {
				feat[i] = 1
			}
		}
		ws, err := decoder.DecodeDifferentialWindows(feat, s.cfg.Redundancy, singleThreshold)
		if err != nil {
			return PacketResult{}, err
		}
		if len(ws) > used {
			ws = ws[:used]
		}
		res.Decoded = true
		res.DecodedTag = decoder.Bits(ws)
		res.SoftTag = decoder.Soft(ws)
		var berDropped int
		res.BitErrors, _, berDropped = decoder.BER(tagBits[:used], res.DecodedTag)
		res.DroppedElements += berDropped
		return res, nil
	}

	raw := demod.RawBitsAt(start, len(ref))
	if len(raw) < len(ref) {
		return res, nil
	}
	ws, dropped, err := decoder.DecodeWindows(ref[hdr:], raw[hdr:], s.cfg.Redundancy, 0.5)
	if err != nil {
		return PacketResult{}, err
	}
	res.DroppedElements += dropped
	if len(ws) > used {
		ws = ws[:used]
	}
	res.Decoded = true
	res.DecodedTag = decoder.Bits(ws)
	var berDropped int
	res.BitErrors, _, berDropped = decoder.BER(tagBits[:used], res.DecodedTag)
	res.DroppedElements += berDropped
	if s.cfg.Coding != nil {
		res.SoftTag = decoder.Soft(ws)
	}
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

// runPacketAt runs packet idx of a multi-packet session on its own derived
// RNG stream. The stream — tag data, payload, WiFi scrambler seed, fading
// and noise — depends only on (Config.Seed, idx), never on which packets
// ran before or on which worker this one lands, which is what makes Run,
// RunBatch and RunParallel bit-identical.
func (s *Session) runPacketAt(idx int) (PacketResult, error) {
	rng := packetRNGPool.Get()
	defer packetRNGPool.Put(rng)
	var crng *rand.Rand
	if s.cfg.ContentSeed != 0 {
		crng = packetRNGPool.Get()
		defer packetRNGPool.Put(crng)
	}
	return s.runPacketAtWith(idx, rng, crng)
}

// runPacketAtWith is runPacketAt with caller-supplied scratch generators
// (crng may be nil when no ContentSeed is set). Both are fully re-seeded
// here — Seed re-initialises the whole source state, so a recycled
// generator draws exactly what a fresh rand.New(rand.NewSource(seed))
// would — which is what lets batch loops hoist the pool traffic out of
// their per-packet loop without changing a single draw.
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
	tagBits := make([]byte, s.Capacity())
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
	var wtx *wifi.Transmitter
	if s.cfg.Radio == WiFi {
		// Commodity cards rotate the 7-bit scrambler seed per packet; here
		// each packet draws its own nonzero seed from its stream instead of
		// inheriting rotation order from the previous packet.
		wtx = &wifi.Transmitter{ScramblerSeed: byte(1 + content.Intn(127)), FixedSeed: true}
	}
	pr, err := s.runPacket(tagBits, content, rng, wtx, idx)
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

// DefaultBatchSize is the packet count per batch dispatch used by Run,
// RunParallel and the serve layer when the caller does not choose one.
// Large enough to amortise per-dispatch setup (RNG pool checkout, scratch
// warm-up, plan lookups), small enough that RunParallel still load-balances
// across workers on modest packet counts.
const DefaultBatchSize = 8

// runPacketRange runs packets [lo, hi) of the derived-stream timeline into
// prs[0:hi-lo] with one set of pooled scratch generators for the whole
// range. Each packet still re-seeds from (Config.Seed, idx) — see
// runPacketAtWith — so the results are bit-identical to calling
// runPacketAt per index.
func (s *Session) runPacketRange(lo, hi int, prs []PacketResult) error {
	rng := packetRNGPool.Get()
	defer packetRNGPool.Put(rng)
	var crng *rand.Rand
	if s.cfg.ContentSeed != 0 {
		crng = packetRNGPool.Get()
		defer packetRNGPool.Put(crng)
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
// their per-packet results. It is the batch counterpart of runPacketAt —
// every packet draws from its own (Config.Seed, index) stream, so the
// returned slice is bit-identical, element for element, to running the
// serial per-packet loop over the same indices — while the batch amortises
// RNG pool checkouts and keeps the scratch arenas, FFT plans and capture
// buffers hot across consecutive packets. With a Waveforms cache attached,
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

// RunBatch is Run with an explicit batch size: packets are processed in
// contiguous ranges of `batch` (<= 0 selects DefaultBatchSize) through
// RunPacketBatch's amortised loop. The aggregate result is bit-identical
// to Run and RunParallel for every batch size.
func (s *Session) RunBatch(n, batch int) (SessionResult, error) {
	if batch <= 0 {
		batch = DefaultBatchSize
	}
	var out SessionResult
	prs := make([]PacketResult, batch)
	for lo := 0; lo < n; lo += batch {
		hi := lo + batch
		if hi > n {
			hi = n
		}
		if err := s.runPacketRange(lo, hi, prs[:hi-lo]); err != nil {
			return SessionResult{}, err
		}
		for i := range prs[:hi-lo] {
			out.accumulate(prs[i], s.cfg.InterPacketGap)
		}
	}
	return out, nil
}

// Run executes n excitation packets with fresh random tag data on each and
// aggregates the results. Each packet runs on its own RNG stream derived
// from (Config.Seed, packet index), so the result is exactly what
// RunParallel produces with any worker count.
func (s *Session) Run(n int) (SessionResult, error) {
	return s.RunBatch(n, DefaultBatchSize)
}

// RunParallel is Run spread over a bounded worker pool (all cores when
// workers <= 0), sharding DefaultBatchSize-packet batches across the pool
// rather than single packets so each dispatch amortises its setup.
// Per-packet seed derivation makes the aggregate SessionResult
// bit-identical to the serial Run for every worker count and batch
// sharding; on error it returns a zero result plus the error the serial
// loop would have hit first (batches are contiguous index ranges, so the
// lowest failing batch's first error is the serial loop's first error).
func (s *Session) RunParallel(n, workers int) (SessionResult, error) {
	prs := make([]PacketResult, n)
	if err := runner.MapBatches(n, DefaultBatchSize, workers, func(lo, hi int) error {
		return s.runPacketRange(lo, hi, prs[lo:hi])
	}); err != nil {
		return SessionResult{}, err
	}
	var out SessionResult
	for i := range prs {
		out.accumulate(prs[i], s.cfg.InterPacketGap)
	}
	return out, nil
}

// wrapPhase folds an angle into (-π, π].
func wrapPhase(x float64) float64 {
	return math.Atan2(math.Sin(x), math.Cos(x))
}
