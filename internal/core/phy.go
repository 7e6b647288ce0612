package core

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/bits"
	"repro/internal/bluetooth"
	"repro/internal/signal"
	"repro/internal/tag"
	"repro/internal/waveform"
	"repro/internal/wifi"
	"repro/internal/zigbee"
)

// phy is one radio's half of the packet pipeline. The flow is the same on
// every radio (§3), so a Session runs one shared path — fault gate,
// waveform cache, channel, decode tail — and asks its phy only for what
// differs. newPHY validates the radio's fields and builds the phy once per
// configuration; only the sequential draw mutates it, so RunParallel
// workers share it.
type phy interface {
	airtime() float64 // excitation packet duration, seconds
	translator() tag.Translator
	// draw draws one packet's payload from rng plus its transmitter state
	// (the WiFi scrambler seed, zero elsewhere): rotated on the sequential
	// RunPacket stream, drawn from rng on derived streams.
	draw(rng *rand.Rand, sequential bool) (payload []byte, seed byte)
	// key adds the radio's own fields to a waveform cache key.
	key(k *waveform.KeyBuilder, seed byte)
	// synthesize runs TX, codeword translation and channel shift.
	synthesize(payload, tagBits []byte, seed byte) (*waveform.Entry, error)
	// release recycles an uncached entry once the capture holds its copy.
	release(e *waveform.Entry)
	receive(cap *signal.Signal, e *waveform.Entry) received
}

// received is what a phy's receive hands the decode tail. Dual-receiver
// mode compares ref against obs in windows of window elements, slicing the
// mismatch fraction at WindowThreshold; single-receiver mode leaves ref nil
// and obs holds the per-unit flip features. obs is nil when the packet was
// detected but its streams do not line up.
type received struct {
	detected bool
	ref, obs []byte
	window   int
}

var lost, undecodable = received{}, received{detected: true}

// newPHY validates cfg's radio-specific fields and builds its phy. prev is
// the session's current phy (nil at NewSession), from which WiFi carries
// its sequential scrambler rotation across a SetQuaternary rebuild.
func newPHY(cfg Config, prev phy) (phy, error) {
	switch cfg.Radio {
	case WiFi:
		return newWiFiPHY(cfg, prev)
	case ZigBee:
		return newZigBeePHY(cfg)
	case Bluetooth:
		return newBluetoothPHY(cfg)
	}
	return nil, fmt.Errorf("core: unknown radio %v", cfg.Radio)
}

// Frame bounds on Config.PayloadSize: the payload builders prepend a MAC
// header to a random body, and each PHY caps the frame it can send.
const (
	wifiMACHeader = 24   // 802.11 data MPDU header (wifiPHY.draw)
	wifiMaxPSDU   = 4095 // SIGNAL LENGTH limit; the PSDU is PayloadSize + 4 (FCS)
	zbMACHeader   = 9    // 802.15.4 MHR (zigbeePHY.draw); the PHY appends a 2-byte FCS
)

// checkFrame rejects a payload outside lo..hi bytes, and the quaternary
// scheme on a radio without one.
func checkFrame(cfg Config, lo, hi int, quaternary bool) error {
	if cfg.Quaternary && !quaternary {
		return fmt.Errorf("core: quaternary translation is only implemented for WiFi")
	}
	if cfg.PayloadSize < lo || cfg.PayloadSize > hi {
		return fmt.Errorf("core: %v payload size %d outside [%d, %d] bytes", cfg.Radio, cfg.PayloadSize, lo, hi)
	}
	return nil
}

func newEntry(wave *signal.Signal, used int, airtime float64, ref []byte) *waveform.Entry {
	return &waveform.Entry{Wave: wave, MeanPower: wave.MeanPower(), Used: used, Airtime: airtime, Ref: ref}
}

func randomPayload(rng *rand.Rand, n int) []byte {
	out := make([]byte, n)
	rng.Read(out)
	return out
}

// wifiShifter moves the WiFi backscatter to the adjacent 20 MHz channel.
var wifiShifter = tag.ChannelShifter{OffsetHz: 20e6, Mode: tag.ShiftEquivalentBaseband}

type wifiPHY struct {
	cfg  Config
	rate wifi.Rate
	tr   *tag.PhaseTranslator
	tx   *wifi.Transmitter // the sequential stream's scrambler rotation
}

func newWiFiPHY(cfg Config, prev phy) (phy, error) {
	r, ok := wifi.Rates[cfg.WiFiRateMbps]
	if !ok {
		return nil, fmt.Errorf("core: unknown wifi rate %d Mbps", cfg.WiFiRateMbps)
	}
	if r.Modulation != wifi.BPSK && r.Modulation != wifi.QPSK {
		return nil, fmt.Errorf("core: 180° codeword translation needs BPSK/QPSK subcarriers; %d Mbps uses %v", cfg.WiFiRateMbps, r.Modulation)
	}
	if cfg.Quaternary && r.Modulation != wifi.QPSK {
		return nil, fmt.Errorf("core: quaternary (eq. 5) translation needs QPSK; %d Mbps uses %v", cfg.WiFiRateMbps, r.Modulation)
	}
	if err := checkFrame(cfg, wifiMACHeader, wifiMaxPSDU-4, true); err != nil {
		return nil, err
	}
	// Modulation starts after preamble + SIGNAL + the first DATA symbol:
	// that symbol carries the SERVICE field, from which the receiver
	// recovers the scrambler seed. Flipping it would corrupt descrambling
	// of the whole packet (§3.2.1's scrambler discussion), so the tag
	// leaves it untouched.
	p := &wifiPHY{cfg: cfg, rate: r, tx: wifi.NewTransmitter(), tr: &tag.PhaseTranslator{
		DataStart:     float64(wifi.PreambleLen)/wifi.SampleRate + 2*wifi.SymbolTime,
		SymbolPeriod:  wifi.SymbolTime,
		SymbolsPerBit: cfg.Redundancy,
		DeltaTheta:    math.Pi,
		BitsPerStep:   1,
		Latency:       tag.EnvelopeLatency,
	}}
	if cfg.Quaternary {
		p.tr.DeltaTheta = math.Pi / 2
		p.tr.BitsPerStep = 2
	}
	if old, ok := prev.(*wifiPHY); ok {
		p.tx = old.tx
	}
	return p, nil
}

func (p *wifiPHY) airtime() float64           { return wifi.PacketDuration(p.cfg.PayloadSize+4, p.rate) }
func (p *wifiPHY) translator() tag.Translator { return p.tr }
func (p *wifiPHY) release(e *waveform.Entry)  { excitationPool.Put(e.Wave); e.Wave = nil }

// draw: commodity cards rotate the scrambler seed per packet; a derived-
// stream packet draws its own nonzero seed instead.
func (p *wifiPHY) draw(rng *rand.Rand, sequential bool) ([]byte, byte) {
	var seed byte
	if sequential {
		seed = p.tx.ScramblerSeed
		p.tx.AdvanceScramblerSeed()
	} else {
		seed = byte(1 + rng.Intn(127))
	}
	// A genuine 802.11 data MPDU: the frame body is the productive traffic
	// the excitation carries, and the PSDU is PayloadSize+4 bytes (the
	// raw-payload sizing the calibration uses).
	f := &wifi.DataFrame{
		FrameControl: wifi.FrameControlData,
		DurationID:   44,
		Addr1:        [6]byte{0x02, 0x00, 0x00, 0x00, 0x00, 0x01},
		Addr2:        [6]byte{0x02, 0x00, 0x00, 0x00, 0x00, 0x02},
		Addr3:        [6]byte{0x02, 0x00, 0x00, 0x00, 0x00, 0x03},
		SeqCtrl:      uint16(rng.Intn(1<<12) << 4),
		Body:         randomPayload(rng, p.cfg.PayloadSize-wifiMACHeader),
	}
	return f.Marshal(), seed
}

func (p *wifiPHY) key(k *waveform.KeyBuilder, seed byte) {
	k.Uint64(uint64(p.cfg.WiFiRateMbps)).Uint64(uint64(p.cfg.Redundancy)).Bool(p.cfg.Quaternary).Byte(seed)
}

// synthesize runs the WiFi TX chain in place, all into one buffer. An
// uncached entry is private to its packet, so the buffer comes from
// excitationPool and release hands it back (DESIGN §8.2); a cached entry
// gets a fresh buffer, which the cache then owns.
func (p *wifiPHY) synthesize(psdu, tagBits []byte, seed byte) (*waveform.Entry, error) {
	var exc *signal.Signal
	if p.cfg.Waveforms == nil {
		exc = excitationPool.Get()
	} else {
		exc = signal.New(wifi.SampleRate, 0)
	}
	tx := wifi.Transmitter{ScramblerSeed: seed, FixedSeed: true}
	if err := tx.TransmitTo(exc, psdu, p.rate); err != nil {
		return nil, err
	}
	used, err := p.tr.TranslateInPlace(exc, tagBits)
	if err != nil {
		return nil, err
	}
	if _, err := wifiShifter.Shift(exc); err != nil {
		return nil, err
	}
	e := newEntry(exc, used, exc.Duration(), p.ref(psdu))
	if p.cfg.Quaternary {
		// eq. 5 needs the interleaved coded stream; rebuild it once at
		// synthesis time so cache hits skip it along with the TX chain.
		e.CodedRef, err = wifi.CodedBits(psdu, p.rate, seed)
		if err != nil {
			return nil, err
		}
	}
	return e, nil
}

// ref is receiver 1's reference stream for a PSDU — descrambled SERVICE +
// PSDU + tail + pad — which it reports over the backhaul.
func (p *wifiPHY) ref(psdu []byte) []byte {
	ref := make([]byte, wifi.NumDataSymbols(len(psdu), p.rate)*p.rate.NDBPS)
	copy(ref[wifi.ServiceBits:], bits.FromBytes(psdu))
	return ref
}

func (p *wifiPHY) receiver() *wifi.Receiver {
	rx := wifi.NewReceiver()
	rx.DetectionThreshold = wifiDetectionThreshold
	rx.PilotPhaseTracking = p.cfg.PilotPhaseTracking
	rx.CollectPilotPhases = p.cfg.ReceiverMode == SingleReceiver
	return rx
}

// receive decodes the capture; the tag windows start one OFDM symbol into
// the data, because the SERVICE symbol is reflected unmodified.
func (p *wifiPHY) receive(cap *signal.Signal, e *waveform.Entry) received {
	rx := p.receiver()
	pkt, err := rx.Receive(cap)
	if err != nil {
		return lost
	}
	if len(pkt.PSDU) != p.cfg.PayloadSize+4 {
		return undecodable // header decoded to a wrong length
	}
	if rx.CollectPilotPhases {
		return received{detected: true, obs: wifiFlipFeatures(pkt.PilotPhases, p.cfg.Quaternary), window: p.cfg.Redundancy}
	}
	ref, obs, unit := e.Ref, pkt.RawBits, p.rate.NDBPS
	if p.cfg.Quaternary {
		// eq. 5: rotation hypotheses on the raw demapped coded bits.
		ref, obs, unit = e.CodedRef, pkt.DemappedBits, p.rate.NCBPS
	}
	if len(obs) <= unit {
		return undecodable
	}
	return received{detected: true, ref: ref[unit:], obs: obs[unit:], window: p.cfg.Redundancy * unit}
}

// wifiFlipFeatures is the Double-decker feature extractor for WiFi: the
// receiver's per-symbol pilot-correlation phases are an absolute estimate
// of the tag's applied rotation. phases[0] is the SERVICE symbol —
// reflected untranslated, it anchors the all-zero state the differential
// decoder assumes before window 0, and the features start at index 1. The
// effective window is Redundancy features instead of the dual path's
// Redundancy·NDBPS bits — the heart of the single-receiver sensitivity
// cost the BER-vs-SNR experiment measures. Quaternary features are the
// eq. 5 rotation index (quarter turns), binary ones the half-turn flip.
// Returns nil when no symbol past SERVICE was received.
//
// The raw phases carry a slowly accumulating common phase error on top of
// the tag rotation (the tag's phase jumps bias the receiver's CP-based
// residual-CFO estimate, leaving a drift of ~0.01 rad/symbol that crosses
// a quantisation boundary mid-packet). Quantising the absolute phase
// directly would hand that drift to the differential decoder as a slow
// parade of false transitions, so the extractor runs a decision-directed
// tracker first: the residual after removing the nearest rotation
// hypothesis is rotation-independent, and an EWMA of it estimates the
// drift, which is subtracted before quantising. Drift per symbol is orders
// of magnitude below the π/4 (binary: π/2) decision radius, so the tracker
// cannot lose lock to the tag's own steps.
func wifiFlipFeatures(phases []float64, quaternary bool) []byte {
	if len(phases) <= 1 {
		return nil
	}
	step := math.Pi
	if quaternary {
		step = math.Pi / 2
	}
	feat := make([]byte, len(phases)-1)
	var cpe float64
	for i, p := range phases {
		q := wrapPhase(p - cpe)
		n := math.Round(q / step)
		cpe = wrapPhase(cpe + cpeGain*(q-n*step))
		switch {
		case i == 0:
		case quaternary:
			feat[i-1] = byte(int(n) & 3)
		case math.Abs(q) > math.Pi/2:
			feat[i-1] = 1
		}
	}
	return feat
}

// zbShifter moves the ZigBee backscatter 16 MHz off the excitation channel.
var zbShifter = tag.ChannelShifter{OffsetHz: 16e6, Mode: tag.ShiftEquivalentBaseband}

type zigbeePHY struct {
	cfg Config
	tx  *zigbee.Transmitter
	tr  *tag.PhaseTranslator
}

func newZigBeePHY(cfg Config) (phy, error) {
	if err := checkFrame(cfg, zbMACHeader, zigbee.MaxPayload-2, false); err != nil {
		return nil, err
	}
	hdrSymbols := float64(zigbee.PreambleSymbols + 2 + 2) // preamble + SFD + length
	symPeriod := 1.0 / zigbee.SymbolRate
	return &zigbeePHY{cfg: cfg, tx: zigbee.NewTransmitter(), tr: &tag.PhaseTranslator{
		DataStart:     hdrSymbols * symPeriod,
		SymbolPeriod:  symPeriod,
		SymbolsPerBit: cfg.Redundancy,
		DeltaTheta:    math.Pi,
		BitsPerStep:   1,
		// The envelope latency (0.35 µs) is negligible against the 16 µs
		// OQPSK symbol but is modelled anyway.
		Latency: tag.EnvelopeLatency,
	}}, nil
}

func (p *zigbeePHY) airtime() float64           { return zigbee.FrameDuration(p.cfg.PayloadSize) }
func (p *zigbeePHY) translator() tag.Translator { return p.tr }
func (p *zigbeePHY) release(*waveform.Entry)    {}

// draw builds a genuine 802.15.4 data MPDU (MHR + body) of PayloadSize
// total bytes, carrying productive traffic.
func (p *zigbeePHY) draw(rng *rand.Rand, _ bool) ([]byte, byte) {
	f := &zigbee.DataFrame{
		Seq:     byte(rng.Intn(256)),
		DstPAN:  0x1234,
		DstAddr: 0x0001,
		SrcAddr: 0x0002,
		Payload: randomPayload(rng, p.cfg.PayloadSize-zbMACHeader),
	}
	return f.Marshal(), 0
}

func (p *zigbeePHY) key(k *waveform.KeyBuilder, _ byte) { k.Uint64(uint64(p.cfg.Redundancy)) }

func (p *zigbeePHY) synthesize(payload, tagBits []byte, _ byte) (*waveform.Entry, error) {
	exc, err := p.tx.Transmit(payload)
	if err != nil {
		return nil, err
	}
	backscattered, used, err := p.tr.Translate(exc, tagBits)
	if err != nil {
		return nil, err
	}
	if _, err := zbShifter.Shift(backscattered); err != nil {
		return nil, err
	}
	fcs := bits.CRC16CCITT(payload)
	body := append(append([]byte(nil), payload...), byte(fcs), byte(fcs>>8))
	return newEntry(backscattered, used, exc.Duration(), zigbee.SymbolsFromBytes(body)), nil
}

func (p *zigbeePHY) receive(cap *signal.Signal, e *waveform.Entry) received {
	rx := zigbee.NewReceiver()
	rx.DetectionThreshold = zbDetectionThreshold
	rx.CollectFlips = p.cfg.ReceiverMode == SingleReceiver
	frame, err := rx.Receive(cap)
	if err != nil {
		return lost
	}
	if len(frame.Symbols) != len(e.Ref) {
		return undecodable
	}
	if rx.CollectFlips {
		// Double-decker: each payload symbol's flip feature asks whether
		// the chip window correlated better with the complemented codebook
		// than the true one (see zigbee.RxFrame.Flips) — a clean binary
		// estimate of the tag's absolute flip state, one per symbol.
		return received{detected: true, obs: frame.Flips, window: p.cfg.Redundancy}
	}
	return received{detected: true, ref: e.Ref, obs: frame.Symbols, window: p.cfg.Redundancy}
}

// btHeaderBits is the preamble + access address: the tag's modulation
// starts after them.
const btHeaderBits = 40

type bluetoothPHY struct {
	cfg Config
	tx  *bluetooth.Transmitter
	tr  *tag.FreqTranslator
}

func newBluetoothPHY(cfg Config) (phy, error) {
	if err := checkFrame(cfg, 1, bluetooth.MaxPayload, false); err != nil {
		return nil, err
	}
	return &bluetoothPHY{cfg: cfg, tx: bluetooth.NewTransmitter(), tr: &tag.FreqTranslator{
		DataStart:     btHeaderBits / bluetooth.BitRate,
		BitPeriod:     1.0 / bluetooth.BitRate,
		BitsPerTagBit: cfg.Redundancy,
		ToggleHz:      bluetooth.CodewordDelta,
		Latency:       tag.EnvelopeLatency,
	}}, nil
}

func (p *bluetoothPHY) airtime() float64           { return bluetooth.FrameDuration(p.cfg.PayloadSize) }
func (p *bluetoothPHY) translator() tag.Translator { return p.tr }
func (p *bluetoothPHY) release(*waveform.Entry)    {}

func (p *bluetoothPHY) draw(rng *rand.Rand, _ bool) ([]byte, byte) {
	return randomPayload(rng, p.cfg.PayloadSize), 0
}

// key: the whitening seed is static per session but shapes the waveform,
// so it participates in the key.
func (p *bluetoothPHY) key(k *waveform.KeyBuilder, _ byte) {
	k.Uint64(uint64(p.cfg.Redundancy)).Byte(p.tx.WhitenSeed)
}

func (p *bluetoothPHY) synthesize(payload, tagBits []byte, _ byte) (*waveform.Entry, error) {
	ref, err := p.tx.FrameBits(payload)
	if err != nil {
		return nil, err
	}
	exc := bluetooth.ModulateBits(ref)
	// The Bluetooth tag's codeword toggle already runs through the real
	// square-wave mixer inside the translator; the channel hop to
	// 2.48 GHz is folded into TagLossDB like the others, so no shifter
	// here.
	backscattered, used, err := p.tr.Translate(exc, tagBits)
	if err != nil {
		return nil, err
	}
	return newEntry(backscattered, used, exc.Duration(), ref), nil
}

func (p *bluetoothPHY) receive(cap *signal.Signal, e *waveform.Entry) received {
	rx := bluetooth.NewReceiver()
	rx.DetectionThreshold = btDetectionThreshold
	rx.CollectPower = p.cfg.ReceiverMode == SingleReceiver
	// One channel-filter + discriminator pass answers both the sync
	// detection and the raw bit slicing; its buffers live until the
	// features below have been copied out.
	a := signal.GetArena()
	defer a.Release()
	demod := rx.DemodInto(cap, a)
	start, q := demod.Detect()
	if start < 0 || q < rx.DetectionThreshold {
		return lost
	}
	n := len(e.Ref)
	if rx.CollectPower {
		return received{detected: true, obs: btFlipFeatures(demod.BitPowers(start, n), n), window: p.cfg.Redundancy}
	}
	raw := demod.RawBitsAt(start, n)
	if len(raw) < n {
		return undecodable
	}
	return received{detected: true, ref: e.Ref[btHeaderBits:], obs: raw[btHeaderBits:], window: p.cfg.Redundancy}
}

// btFlipFeatures is the Double-decker feature for Bluetooth: a flipped
// bit's FSK tone is toggled out to a sideband the ±500 kHz channel filter
// mostly rejects, so its filtered in-band power drops to ≈(2/π)² of an
// unflipped bit's. The untranslated header bits self-calibrate the
// reference power — no second receiver, and no absolute power knowledge.
// Returns nil when fewer than n bit powers arrived or the header is silent.
func btFlipFeatures(powers []float64, n int) []byte {
	if len(powers) < n {
		return nil
	}
	refPower := 0.0
	for _, p := range powers[:btHeaderBits] {
		refPower += p
	}
	refPower /= btHeaderBits
	if refPower <= 0 {
		return nil
	}
	feat := make([]byte, n-btHeaderBits)
	for i, p := range powers[btHeaderBits:n] {
		if p < btSinglePowerRatio*refPower {
			feat[i] = 1
		}
	}
	return feat
}

// wrapPhase folds an angle into (-π, π].
func wrapPhase(x float64) float64 {
	return math.Atan2(math.Sin(x), math.Cos(x))
}
