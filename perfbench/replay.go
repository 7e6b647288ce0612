package main

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/bits"
	"repro/internal/bluetooth"
	"repro/internal/core"
	"repro/internal/decoder"
	"repro/internal/fec"
	"repro/internal/runner"
	"repro/internal/signal"
	"repro/internal/tag"
	"repro/internal/waveform"
	"repro/internal/wifi"
	"repro/internal/zigbee"
)

// The replay re-executes one packet of a core.Session stage by stage,
// calling each layer's public functions in the order core's private packet
// path calls them, with a span around every call. It mirrors
// core.Session.runPacketAtWith for the fault-free binary configs the
// workloads use: the same derived RNG streams, the same draws in the same
// order, the same waveform cache keys, so each replayed packet must decode
// exactly as RunPacketBatch decodes it. That equality is checked, which is
// what makes the per-stage times attributable to the real pipeline.

// Calibrated receiver constants core keeps private; the replay needs the
// same values to decode the same way.
const (
	wifiDetect      = 0.72
	zigbeeDetect    = 0.85
	btDetect        = 0.81
	singleSlice     = 0.5
	cpeGain         = 0.25
	btPowerRatio    = 0.7
	btHeaderBits    = 40
	captureHeadroom = 400
)

// replayer holds what one config's replay needs across packets: the
// session-level constants core derives at NewSession, plus reusable
// generators and a capture buffer.
type replayer struct {
	cfg      core.Config
	capacity int
	layout   *fec.Layout
	chanRng  *rand.Rand
	content  *rand.Rand
	capture  *signal.Signal
	zbTX     *zigbee.Transmitter
	btTX     *bluetooth.Transmitter
}

func newReplayer(cfg core.Config) (*replayer, error) {
	s, err := core.NewSession(cfg)
	if err != nil {
		return nil, err
	}
	r := &replayer{
		cfg:      cfg,
		capacity: s.Capacity(),
		chanRng:  rand.New(rand.NewSource(0)),
		content:  rand.New(rand.NewSource(0)),
		capture:  signal.New(0, 0),
		zbTX:     zigbee.NewTransmitter(),
		btTX:     bluetooth.NewTransmitter(),
	}
	if lay, ok := s.Layout(); ok {
		r.layout = &lay
	}
	return r, nil
}

// outcome is the part of a packet's result the replay must reproduce.
type outcome struct {
	Detected, Decoded bool
	BitErrors         int
	DecodedTag        string
	Dropped           int
	DataBitErrors     int
	Corrected         int
	RSFailed          bool
}

func outcomeOf(pr core.PacketResult) outcome {
	return outcome{
		Detected: pr.Detected, Decoded: pr.Decoded, BitErrors: pr.BitErrors,
		DecodedTag: string(pr.DecodedTag), Dropped: pr.DroppedElements,
		DataBitErrors: pr.DataBitErrors, Corrected: pr.CorrectedSymbols, RSFailed: pr.RSFailed,
	}
}

// replay runs packet idx, recording spans on tr (nil: untraced) under the
// given id, with waveforms served from cache (nil: synthesise every
// packet).
func (r *replayer) replay(idx, id int, cache *waveform.Cache, tr *tracer) (outcome, error) {
	root := tr.begin("core.packet", id)
	defer tr.end(root)

	r.chanRng.Seed(runner.DeriveSeed(r.cfg.Seed, "core.packet", idx))
	content := r.chanRng
	if r.cfg.ContentSeed != 0 {
		r.content.Seed(runner.DeriveSeed(r.cfg.ContentSeed, "core.content", idx))
		content = r.content
	}
	tagBits := make([]byte, r.capacity)
	for j := range tagBits {
		tagBits[j] = byte(content.Intn(2))
	}
	var dataBits []byte
	if r.layout != nil {
		dataBits = append([]byte(nil), tagBits[:r.layout.DataBits()]...)
		sp := tr.begin("fec.encode", id)
		coded, err := r.layout.EncodeBits(dataBits)
		tr.end(sp)
		if err != nil {
			return outcome{}, err
		}
		copy(tagBits, coded)
	}
	var o outcome
	var decoded []byte
	var err error
	switch r.cfg.Radio {
	case core.WiFi:
		o, decoded, err = r.wifiPacket(content, tagBits, id, cache, tr)
	case core.ZigBee:
		o, decoded, err = r.zigbeePacket(content, tagBits, id, cache, tr)
	case core.Bluetooth:
		o, decoded, err = r.bluetoothPacket(content, tagBits, id, cache, tr)
	default:
		err = fmt.Errorf("replay: unknown radio %v", r.cfg.Radio)
	}
	if err != nil || r.layout == nil || !o.Decoded {
		return o, err
	}
	if len(decoded) < r.layout.CodedBits() {
		o.RSFailed = true
		return o, nil
	}
	sp := tr.begin("fec.decode", id)
	data, corrected, ok := r.layout.DecodeBits(decoded)
	tr.end(sp)
	o.Corrected, o.RSFailed = corrected, !ok
	var dropped int
	o.DataBitErrors, _, dropped = decoder.BER(dataBits, data)
	o.Dropped += dropped
	return o, nil
}

// lookup returns the packet's clean waveform: from the cache when one is
// attached (synth runs on a miss, inside the lookup span), else synth.
func lookup(cache *waveform.Cache, key func() waveform.Key, id int, tr *tracer, synth func() (*waveform.Entry, error)) (*waveform.Entry, bool, error) {
	if cache == nil {
		e, err := synth()
		return e, true, err
	}
	sp := tr.begin("waveform.lookup", id)
	defer tr.end(sp)
	return cache.GetOrSynthesize(key(), synth)
}

// applyChannel draws the packet's link seed and runs the channel into the
// replayer's capture buffer.
func (r *replayer) applyChannel(e *waveform.Entry, id int, tr *tracer) error {
	l := r.cfg.Link
	l.Seed = r.chanRng.Int63()
	sp := tr.begin("channel.apply", id)
	defer tr.end(sp)
	return l.ApplyToWithPower(r.capture, e.Wave, captureHeadroom, false, e.MeanPower)
}

func (r *replayer) wifiPacket(content *rand.Rand, tagBits []byte, id int, cache *waveform.Cache, tr *tracer) (outcome, []byte, error) {
	cfg := r.cfg
	rate := wifi.Rates[cfg.WiFiRateMbps]
	wtx := &wifi.Transmitter{ScramblerSeed: byte(1 + content.Intn(127)), FixedSeed: true}
	bodyLen := cfg.PayloadSize - 24
	if bodyLen < 0 {
		bodyLen = 0
	}
	frame := &wifi.DataFrame{
		FrameControl: wifi.FrameControlData,
		DurationID:   44,
		Addr1:        [6]byte{0x02, 0x00, 0x00, 0x00, 0x00, 0x01},
		Addr2:        [6]byte{0x02, 0x00, 0x00, 0x00, 0x00, 0x02},
		Addr3:        [6]byte{0x02, 0x00, 0x00, 0x00, 0x00, 0x03},
		SeqCtrl:      uint16(content.Intn(1<<12) << 4),
		Body:         randomBytes(content, bodyLen),
	}
	psdu := frame.Marshal()
	seed := wtx.ScramblerSeed
	synth := func() (*waveform.Entry, error) {
		sp := tr.begin("wifi.tx", id)
		exc, err := wtx.Transmit(psdu, rate)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		tl := &tag.PhaseTranslator{
			DataStart:     float64(wifi.PreambleLen)/wifi.SampleRate + 2*wifi.SymbolTime,
			SymbolPeriod:  wifi.SymbolTime,
			SymbolsPerBit: cfg.Redundancy,
			DeltaTheta:    math.Pi,
			BitsPerStep:   1,
			Latency:       tag.EnvelopeLatency,
		}
		sp = tr.begin("tag.translate", id)
		back, used, err := tl.Translate(exc, tagBits)
		if err == nil {
			_, err = tag.ChannelShifter{OffsetHz: 20e6, Mode: tag.ShiftEquivalentBaseband}.Shift(back)
		}
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		ref := make([]byte, wifi.NumDataSymbols(len(psdu), rate)*rate.NDBPS)
		copy(ref[wifi.ServiceBits:], bits.FromBytes(psdu))
		return &waveform.Entry{Wave: back, MeanPower: back.MeanPower(), Used: used, Airtime: exc.Duration(), Ref: ref}, nil
	}
	key := func() waveform.Key {
		return waveform.NewKey().Byte(byte(core.WiFi)).Uint64(uint64(cfg.WiFiRateMbps)).
			Uint64(uint64(cfg.Redundancy)).Bool(false).Byte(seed).Bytes(psdu).Bytes(tagBits).Sum()
	}
	e, ran, err := lookup(cache, key, id, tr, synth)
	if err != nil {
		return outcome{}, nil, err
	}
	if !ran {
		wtx.AdvanceScramblerSeed()
	}
	if err := r.applyChannel(e, id, tr); err != nil {
		return outcome{}, nil, err
	}
	rx := wifi.NewReceiver()
	rx.DetectionThreshold = wifiDetect
	rx.CollectPilotPhases = cfg.ReceiverMode == core.SingleReceiver
	rx.SkipRSSI = true
	sp := tr.begin("wifi.rx", id)
	pkt, err := rx.Receive(r.capture)
	tr.end(sp)
	if err != nil {
		return outcome{}, nil, nil
	}
	o := outcome{Detected: true}
	if len(pkt.PSDU) != len(psdu) {
		return o, nil, nil
	}
	used := e.Used
	if cfg.ReceiverMode == core.SingleReceiver {
		if len(pkt.PilotPhases) <= 1 {
			return o, nil, nil
		}
		feat := make([]byte, len(pkt.PilotPhases)-1)
		var cpe float64
		for i, p := range pkt.PilotPhases {
			q := wrapPhase(p - cpe)
			n := math.Round(q / math.Pi)
			cpe = wrapPhase(cpe + cpeGain*(q-n*math.Pi))
			if i > 0 && math.Abs(q) > math.Pi/2 {
				feat[i-1] = 1
			}
		}
		return finishDifferential(o, feat, cfg.Redundancy, tagBits, used, id, tr)
	}
	if len(pkt.RawBits) <= rate.NDBPS {
		return o, nil, nil
	}
	sp = tr.begin("decoder.windows", id)
	ws, dropped, err := decoder.DecodeWindows(e.Ref[rate.NDBPS:], pkt.RawBits[rate.NDBPS:], cfg.Redundancy*rate.NDBPS, 0.5)
	tr.end(sp)
	if err != nil {
		return outcome{}, nil, err
	}
	o.Dropped = dropped
	return finishWindows(o, ws, tagBits, used)
}

func (r *replayer) zigbeePacket(content *rand.Rand, tagBits []byte, id int, cache *waveform.Cache, tr *tracer) (outcome, []byte, error) {
	cfg := r.cfg
	bodyLen := cfg.PayloadSize - 9
	if bodyLen < 0 {
		bodyLen = 0
	}
	frame := &zigbee.DataFrame{
		Seq: byte(content.Intn(256)), DstPAN: 0x1234, DstAddr: 0x0001, SrcAddr: 0x0002,
		Payload: randomBytes(content, bodyLen),
	}
	payload := frame.Marshal()
	synth := func() (*waveform.Entry, error) {
		sp := tr.begin("zigbee.tx", id)
		exc, err := r.zbTX.Transmit(payload)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		period := 1.0 / zigbee.SymbolRate
		tl := &tag.PhaseTranslator{
			DataStart:     float64(zigbee.PreambleSymbols+2+2) * period,
			SymbolPeriod:  period,
			SymbolsPerBit: cfg.Redundancy,
			DeltaTheta:    math.Pi,
			BitsPerStep:   1,
			Latency:       tag.EnvelopeLatency,
		}
		sp = tr.begin("tag.translate", id)
		back, used, err := tl.Translate(exc, tagBits)
		if err == nil {
			_, err = tag.ChannelShifter{OffsetHz: 16e6, Mode: tag.ShiftEquivalentBaseband}.Shift(back)
		}
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		fcs := bits.CRC16CCITT(payload)
		body := append(append([]byte(nil), payload...), byte(fcs), byte(fcs>>8))
		return &waveform.Entry{Wave: back, MeanPower: back.MeanPower(), Used: used, Airtime: exc.Duration(), Ref: zigbee.SymbolsFromBytes(body)}, nil
	}
	key := func() waveform.Key {
		return waveform.NewKey().Byte(byte(core.ZigBee)).Uint64(uint64(cfg.Redundancy)).Bytes(payload).Bytes(tagBits).Sum()
	}
	e, _, err := lookup(cache, key, id, tr, synth)
	if err != nil {
		return outcome{}, nil, err
	}
	if err := r.applyChannel(e, id, tr); err != nil {
		return outcome{}, nil, err
	}
	rx := zigbee.NewReceiver()
	rx.DetectionThreshold = zigbeeDetect
	rx.CollectFlips = cfg.ReceiverMode == core.SingleReceiver
	sp := tr.begin("zigbee.rx", id)
	f, err := rx.Receive(r.capture)
	tr.end(sp)
	if err != nil {
		return outcome{}, nil, nil
	}
	o := outcome{Detected: true}
	if len(f.Symbols) != len(e.Ref) {
		return o, nil, nil
	}
	if cfg.ReceiverMode == core.SingleReceiver {
		return finishDifferential(o, f.Flips, cfg.Redundancy, tagBits, e.Used, id, tr)
	}
	sp = tr.begin("decoder.windows", id)
	ws, dropped, err := decoder.DecodeWindows(e.Ref, f.Symbols, cfg.Redundancy, 0.3)
	tr.end(sp)
	if err != nil {
		return outcome{}, nil, err
	}
	o.Dropped = dropped
	return finishWindows(o, ws, tagBits, e.Used)
}

func (r *replayer) bluetoothPacket(content *rand.Rand, tagBits []byte, id int, cache *waveform.Cache, tr *tracer) (outcome, []byte, error) {
	cfg := r.cfg
	payload := randomBytes(content, cfg.PayloadSize)
	synth := func() (*waveform.Entry, error) {
		sp := tr.begin("bluetooth.tx", id)
		exc, err := r.btTX.Transmit(payload)
		var ref []byte
		if err == nil {
			ref, err = r.btTX.FrameBits(payload)
		}
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		tl := &tag.FreqTranslator{
			DataStart:     btHeaderBits / bluetooth.BitRate,
			BitPeriod:     1.0 / bluetooth.BitRate,
			BitsPerTagBit: cfg.Redundancy,
			ToggleHz:      bluetooth.CodewordDelta,
			Latency:       tag.EnvelopeLatency,
		}
		sp = tr.begin("tag.translate", id)
		back, used, err := tl.Translate(exc, tagBits)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		return &waveform.Entry{Wave: back, MeanPower: back.MeanPower(), Used: used, Airtime: exc.Duration(), Ref: ref}, nil
	}
	key := func() waveform.Key {
		return waveform.NewKey().Byte(byte(core.Bluetooth)).Uint64(uint64(cfg.Redundancy)).
			Byte(r.btTX.WhitenSeed).Bytes(payload).Bytes(tagBits).Sum()
	}
	e, _, err := lookup(cache, key, id, tr, synth)
	if err != nil {
		return outcome{}, nil, err
	}
	if err := r.applyChannel(e, id, tr); err != nil {
		return outcome{}, nil, err
	}
	rx := bluetooth.NewReceiver()
	rx.DetectionThreshold = btDetect
	single := cfg.ReceiverMode == core.SingleReceiver
	rx.CollectPower = single
	ref := e.Ref
	sp := tr.begin("bluetooth.rx", id)
	demod := rx.Demod(r.capture)
	start, q := demod.Detect()
	detected := start >= 0 && q >= rx.DetectionThreshold
	var raw []byte
	var powers []float64
	if detected && single {
		powers = demod.BitPowers(start, len(ref))
	} else if detected {
		raw = demod.RawBitsAt(start, len(ref))
	}
	tr.end(sp)
	if !detected {
		return outcome{}, nil, nil
	}
	o := outcome{Detected: true}
	if single {
		if len(powers) < len(ref) {
			return o, nil, nil
		}
		refPower := 0.0
		for _, p := range powers[:btHeaderBits] {
			refPower += p
		}
		refPower /= btHeaderBits
		if refPower <= 0 {
			return o, nil, nil
		}
		feat := make([]byte, len(ref)-btHeaderBits)
		for i, p := range powers[btHeaderBits:] {
			if p < btPowerRatio*refPower {
				feat[i] = 1
			}
		}
		return finishDifferential(o, feat, cfg.Redundancy, tagBits, e.Used, id, tr)
	}
	if len(raw) < len(ref) {
		return o, nil, nil
	}
	sp = tr.begin("decoder.windows", id)
	ws, dropped, err := decoder.DecodeWindows(ref[btHeaderBits:], raw[btHeaderBits:], cfg.Redundancy, 0.5)
	tr.end(sp)
	if err != nil {
		return outcome{}, nil, err
	}
	o.Dropped = dropped
	return finishWindows(o, ws, tagBits, e.Used)
}

// finishDifferential runs the single-receiver window decision on a flip
// feature stream and scores it against the sent bits.
func finishDifferential(o outcome, feat []byte, window int, tagBits []byte, used, id int, tr *tracer) (outcome, []byte, error) {
	sp := tr.begin("decoder.windows", id)
	ws, err := decoder.DecodeDifferentialWindows(feat, window, singleSlice)
	tr.end(sp)
	if err != nil {
		return outcome{}, nil, err
	}
	return finishWindows(o, ws, tagBits, used)
}

// finishWindows truncates the window decisions to the embedded bits and
// scores them against the sent bits.
func finishWindows(o outcome, ws []decoder.WindowResult, tagBits []byte, used int) (outcome, []byte, error) {
	if len(ws) > used {
		ws = ws[:used]
	}
	decoded := decoder.Bits(ws)
	o.Decoded = true
	o.DecodedTag = string(decoded)
	var dropped int
	o.BitErrors, _, dropped = decoder.BER(tagBits[:used], decoded)
	o.Dropped += dropped
	return o, decoded, nil
}

func randomBytes(rng *rand.Rand, n int) []byte {
	out := make([]byte, n)
	rng.Read(out)
	return out
}

func wrapPhase(x float64) float64 { return math.Atan2(math.Sin(x), math.Cos(x)) }
