package zigbee

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/signal"
)

func TestDataFrameRoundTrip(t *testing.T) {
	f := &DataFrame{Seq: 42, DstPAN: 0x1234, DstAddr: 0xBEEF, SrcAddr: 0xCAFE,
		Payload: []byte("sensor reading")}
	got, err := parseDataFrame(f.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != f.Seq || got.DstPAN != f.DstPAN || got.DstAddr != f.DstAddr ||
		got.SrcAddr != f.SrcAddr || !bytes.Equal(got.Payload, f.Payload) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestDataFrameRoundTripProperty(t *testing.T) {
	fn := func(seq byte, pan, dst, src uint16, payload []byte) bool {
		if len(payload) > 100 {
			payload = payload[:100]
		}
		f := &DataFrame{Seq: seq, DstPAN: pan, DstAddr: dst, SrcAddr: src, Payload: payload}
		got, err := parseDataFrame(f.Marshal())
		return err == nil && got.Seq == seq && got.DstPAN == pan &&
			got.DstAddr == dst && got.SrcAddr == src && bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Error(err)
	}
}

func TestParseDataFrameRejects(t *testing.T) {
	if _, err := parseDataFrame(make([]byte, 4)); err == nil {
		t.Error("short MPDU accepted")
	}
	bad := (&DataFrame{}).Marshal()
	bad[0] = 0x00
	if _, err := parseDataFrame(bad); err == nil {
		t.Error("wrong frame control accepted")
	}
}

func TestDataFrameOverTheAir(t *testing.T) {
	f := &DataFrame{Seq: 7, DstPAN: 0xABCD, DstAddr: 1, SrcAddr: 2,
		Payload: []byte("over the 802.15.4 air")}
	sig, err := NewTransmitter().Transmit(f.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	cap := signal.New(SampleRate, len(sig.Samples)+300)
	copy(cap.Samples[100:], sig.Samples)
	frame, err := NewReceiver().Receive(cap)
	if err != nil {
		t.Fatal(err)
	}
	if !frame.FCSOK {
		t.Fatal("FCS failed")
	}
	if !bytes.Equal(frame.Payload, f.Marshal()) {
		t.Fatal("MPDU corrupted over the air")
	}
}

// parseDataFrame decodes an MPDU produced by Marshal (the PHY layer has
// already verified and stripped the FCS): the reference Marshal's round
// trip is checked against.
func parseDataFrame(mpdu []byte) (*DataFrame, error) {
	if len(mpdu) < mhrLen {
		return nil, fmt.Errorf("zigbee: MPDU %d bytes too short", len(mpdu))
	}
	if fc := binary.LittleEndian.Uint16(mpdu[0:]); fc != frameControlData {
		return nil, fmt.Errorf("zigbee: unsupported frame control %#04x", fc)
	}
	return &DataFrame{
		Seq:     mpdu[2],
		DstPAN:  binary.LittleEndian.Uint16(mpdu[3:]),
		DstAddr: binary.LittleEndian.Uint16(mpdu[5:]),
		SrcAddr: binary.LittleEndian.Uint16(mpdu[7:]),
		Payload: append([]byte(nil), mpdu[mhrLen:]...),
	}, nil
}
