package experiments

import (
	"fmt"

	"repro/internal/bluetooth"
	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/wifi"
	"repro/internal/zigbee"
)

// WaterfallPoint is one SNR sample of a PHY characterisation curve.
type WaterfallPoint struct {
	SNRdB       float64
	PacketRate  float64 // fraction of packets decoded with a valid checksum
	PayloadBER  float64 // bit error rate over decoded payloads
	FrameErrors int
	Frames      int
}

// String renders the point as a bench-log row.
func (p WaterfallPoint) String() string {
	return fmt.Sprintf("snr=%5.1fdB packetRate=%4.2f payloadBER=%7.1e (%d/%d frames)",
		p.SNRdB, p.PacketRate, p.PayloadBER, p.Frames-p.FrameErrors, p.Frames)
}

// Waterfall sweeps packet success and payload BER against SNR for one
// excitation PHY's native link (no backscatter), using each receiver's
// default detection settings: the sensitivity curves the link-budget
// calibration rests on. Frames per point controls the resolution.
//
// Every (SNR point, frame) pair is an independent job on the worker pool,
// seeded by runner.DeriveSeed(seed, "waterfall.<radio>", point, frame), so
// frames within a point run concurrently yet the per-point tallies reduce
// in frame order and match a serial sweep exactly.
func Waterfall(radio core.Radio, snrsDB []float64, framesPerPoint int, opt Options) ([]WaterfallPoint, error) {
	if framesPerPoint <= 0 {
		return nil, fmt.Errorf("experiments: frames per point %d must be positive", framesPerPoint)
	}
	domain := fmt.Sprintf("waterfall.%v", radio)
	sp := opt.Obs.Start(domain)
	type frameResult struct {
		ok               bool
		bitErrs, bitTot  int
		samplesProcessed int64
	}
	frames := make([]frameResult, len(snrsDB)*framesPerPoint)
	st, err := runner.MapStats(len(frames), opt.Workers, func(k int) error {
		i, f := k/framesPerPoint, k%framesPerPoint
		s := runner.DeriveSeed(opt.Seed, domain, i, f)
		ok, be, bt, ns, err := oneFrame(radio, snrsDB[i], s)
		if err != nil {
			return err
		}
		frames[k] = frameResult{ok: ok, bitErrs: be, bitTot: bt, samplesProcessed: ns}
		return nil
	})
	sp.RecordPool(st.Workers, st.Busy)
	if err != nil {
		sp.End()
		return nil, err
	}
	out := make([]WaterfallPoint, 0, len(snrsDB))
	for i, snr := range snrsDB {
		pt := WaterfallPoint{SNRdB: snr, Frames: framesPerPoint}
		bitErr, bitTot := 0, 0
		for f := 0; f < framesPerPoint; f++ {
			fr := frames[i*framesPerPoint+f]
			sp.AddPackets(1)
			sp.AddSamples(fr.samplesProcessed)
			if !fr.ok {
				pt.FrameErrors++
				continue
			}
			bitErr += fr.bitErrs
			bitTot += fr.bitTot
		}
		pt.PacketRate = float64(framesPerPoint-pt.FrameErrors) / float64(framesPerPoint)
		if bitTot > 0 {
			pt.PayloadBER = float64(bitErr) / float64(bitTot)
		}
		out = append(out, pt)
	}
	sp.AddPoints(int64(len(out)))
	sp.End()
	return out, nil
}

// oneFrame runs a single native-PHY frame at the given SNR, returning
// whether the frame passed its checksum plus payload bit-error counts and
// the number of baseband samples in the noisy capture.
func oneFrame(radio core.Radio, snrDB float64, seed int64) (ok bool, bitErrs, bits int, samples int64, err error) {
	payload := make([]byte, 200)
	for i := range payload {
		payload[i] = byte(i*31 + int(seed))
	}
	switch radio {
	case core.WiFi:
		psdu := wifi.AppendFCS(payload)
		sig, terr := wifi.NewTransmitter().Transmit(psdu, wifi.Rates[6])
		if terr != nil {
			return false, 0, 0, 0, terr
		}
		cap, cerr := channel.ApplySNR(sig, snrDB, 300, seed)
		if cerr != nil {
			return false, 0, 0, 0, cerr
		}
		samples = int64(len(cap.Samples))
		pkt, rerr := wifi.NewReceiver().Receive(cap)
		if rerr != nil || len(pkt.PSDU) != len(psdu) {
			return false, 0, 0, samples, nil
		}
		return pkt.FCSOK, byteErrors(pkt.PSDU[:len(payload)], payload), len(payload) * 8, samples, nil
	case core.ZigBee:
		sig, terr := zigbee.NewTransmitter().Transmit(payload[:90])
		if terr != nil {
			return false, 0, 0, 0, terr
		}
		cap, cerr := channel.ApplySNR(sig, snrDB, 300, seed)
		if cerr != nil {
			return false, 0, 0, 0, cerr
		}
		samples = int64(len(cap.Samples))
		f, rerr := zigbee.NewReceiver().Receive(cap)
		if rerr != nil || len(f.Payload) != 90 {
			return false, 0, 0, samples, nil
		}
		return f.FCSOK, byteErrors(f.Payload, payload[:90]), 90 * 8, samples, nil
	case core.Bluetooth:
		sig, terr := bluetooth.NewTransmitter().Transmit(payload[:120])
		if terr != nil {
			return false, 0, 0, 0, terr
		}
		cap, cerr := channel.ApplySNR(sig, snrDB, 300, seed)
		if cerr != nil {
			return false, 0, 0, 0, cerr
		}
		samples = int64(len(cap.Samples))
		f, rerr := bluetooth.NewReceiver().Receive(cap)
		if rerr != nil || len(f.Payload) != 120 {
			return false, 0, 0, samples, nil
		}
		return f.CRCOK, byteErrors(f.Payload, payload[:120]), 120 * 8, samples, nil
	}
	return false, 0, 0, 0, fmt.Errorf("experiments: unknown radio %v", radio)
}

func byteErrors(got, want []byte) int {
	n := 0
	for i := range want {
		if i >= len(got) {
			n += 8
			continue
		}
		x := got[i] ^ want[i]
		for x != 0 {
			n += int(x & 1)
			x >>= 1
		}
	}
	return n
}
