package experiments

import (
	"fmt"

	"repro/internal/bluetooth"
	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/signal"
	"repro/internal/wifi"
	"repro/internal/zigbee"
)

// WaterfallPoint is one SNR sample of a PHY characterisation curve.
type WaterfallPoint struct {
	SNRdB      float64
	PacketRate float64 // fraction of packets decoded with a valid checksum
	// PayloadBER is the bit error rate over every payload the receiver
	// returned at the sent length, its checksum valid or not.
	PayloadBER  float64
	FrameErrors int // frames lost or decoded with a failed checksum
	Lost        int // frames the receiver returned no payload of the sent length for
	Frames      int
}

// String renders the point as a bench-log row.
func (p WaterfallPoint) String() string {
	return fmt.Sprintf("snr=%5.1fdB packetRate=%4.2f payloadBER=%7.1e (%d/%d frames, %d lost)",
		p.SNRdB, p.PacketRate, p.PayloadBER, p.Frames-p.FrameErrors, p.Frames, p.Lost)
}

// NativeLink is one radio's native PHY chain (no backscatter) at its
// default settings: the transmitter, the receiver and the receiver's
// preamble detector.
type NativeLink struct {
	// Transmit synthesises one frame carrying payload (WiFi appends the
	// FCS and sends at 6 Mbps).
	Transmit func(payload []byte) (*signal.Signal, error)
	// Receive decodes a capture, returning the payload (without the WiFi
	// FCS) and whether its checksum held.
	Receive func(cap *signal.Signal) (payload []byte, checksumOK bool, err error)
	// Detect returns the preamble detection quality on a capture.
	Detect func(cap *signal.Signal) float64
}

// NativeLinks holds each radio's native link, indexed by core.Radio.
var NativeLinks = [...]NativeLink{
	core.WiFi: {
		Transmit: func(payload []byte) (*signal.Signal, error) {
			return wifi.NewTransmitter().Transmit(wifi.AppendFCS(payload), wifi.Rates[6])
		},
		Receive: func(cap *signal.Signal) ([]byte, bool, error) {
			pkt, err := wifi.NewReceiver().Receive(cap)
			if err != nil || len(pkt.PSDU) < 4 {
				return nil, false, err
			}
			return pkt.PSDU[:len(pkt.PSDU)-4], pkt.FCSOK, nil
		},
		Detect: func(cap *signal.Signal) float64 { _, q := wifi.NewReceiver().DetectPreamble(cap); return q },
	},
	core.ZigBee: {
		Transmit: func(payload []byte) (*signal.Signal, error) { return zigbee.NewTransmitter().Transmit(payload) },
		Receive: func(cap *signal.Signal) ([]byte, bool, error) {
			f, err := zigbee.NewReceiver().Receive(cap)
			if err != nil {
				return nil, false, err
			}
			return f.Payload, f.FCSOK, nil
		},
		Detect: func(cap *signal.Signal) float64 { _, q := zigbee.NewReceiver().Detect(cap); return q },
	},
	core.Bluetooth: {
		Transmit: func(payload []byte) (*signal.Signal, error) { return bluetooth.NewTransmitter().Transmit(payload) },
		Receive: func(cap *signal.Signal) ([]byte, bool, error) {
			f, err := bluetooth.NewReceiver().Receive(cap)
			if err != nil {
				return nil, false, err
			}
			return f.Payload, f.CRCOK, nil
		},
		Detect: func(cap *signal.Signal) float64 { _, q := bluetooth.NewReceiver().Detect(cap); return q },
	},
}

// waterfallPayload is each radio's waterfall frame payload in bytes.
var waterfallPayload = [...]int{core.WiFi: 200, core.ZigBee: 90, core.Bluetooth: 120}

// Waterfall sweeps packet success and payload BER against SNR for one
// excitation PHY's native link (no backscatter), using each receiver's
// default detection settings: the sensitivity curves the link-budget
// calibration rests on. Frames per point controls the resolution.
//
// Each SNR point is one job on the worker pool and runs its frames in
// frame order, frame f of point i seeded by
// runner.DeriveSeed(seed, "waterfall.<radio>", i, f).
func Waterfall(radio core.Radio, snrsDB []float64, framesPerPoint int, opt Options) ([]WaterfallPoint, error) {
	if framesPerPoint <= 0 {
		return nil, fmt.Errorf("experiments: frames per point %d must be positive", framesPerPoint)
	}
	if radio < 0 || int(radio) >= len(NativeLinks) {
		return nil, fmt.Errorf("experiments: unknown radio %v", radio)
	}
	link, size := NativeLinks[radio], waterfallPayload[radio]
	domain := fmt.Sprintf("waterfall.%v", radio)
	return sweep(opt, domain, len(snrsDB), func(i int, sp *span) (WaterfallPoint, error) {
		pt := WaterfallPoint{SNRdB: snrsDB[i], Frames: framesPerPoint}
		bitErr, bitTot := 0, 0
		for f := 0; f < framesPerPoint; f++ {
			seed := runner.DeriveSeed(opt.Seed, domain, i, f)
			payload := make([]byte, size)
			for j := range payload {
				payload[j] = byte(j*31 + int(seed))
			}
			sig, err := link.Transmit(payload)
			if err != nil {
				return WaterfallPoint{}, err
			}
			cap, err := channel.ApplySNR(sig, snrsDB[i], 300, seed)
			if err != nil {
				return WaterfallPoint{}, err
			}
			sp.packets.Add(1)
			sp.samples.Add(int64(len(cap.Samples)))
			got, ok, err := link.Receive(cap)
			if err != nil || len(got) != size {
				pt.FrameErrors++
				pt.Lost++
				continue
			}
			if !ok {
				pt.FrameErrors++
			}
			bitErr += byteErrors(got, payload)
			bitTot += size * 8
		}
		pt.PacketRate = float64(framesPerPoint-pt.FrameErrors) / float64(framesPerPoint)
		if bitTot > 0 {
			pt.PayloadBER = float64(bitErr) / float64(bitTot)
		}
		return pt, nil
	})
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
