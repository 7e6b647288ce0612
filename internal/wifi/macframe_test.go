package wifi

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
	"testing/quick"
)

func sampleFrame(body []byte) *DataFrame {
	return &DataFrame{
		FrameControl: FrameControlData,
		DurationID:   44,
		Addr1:        [6]byte{0x00, 0x11, 0x22, 0x33, 0x44, 0x55},
		Addr2:        [6]byte{0x66, 0x77, 0x88, 0x99, 0xAA, 0xBB},
		Addr3:        [6]byte{0xCC, 0xDD, 0xEE, 0xFF, 0x00, 0x11},
		SeqCtrl:      0x0150,
		Body:         body,
	}
}

func TestDataFrameRoundTrip(t *testing.T) {
	f := sampleFrame([]byte("productive payload"))
	psdu := f.Marshal()
	if len(psdu) != 24+len(f.Body)+4 {
		t.Fatalf("PSDU length %d", len(psdu))
	}
	got, err := parseDataFrame(psdu)
	if err != nil {
		t.Fatal(err)
	}
	if got.FrameControl != f.FrameControl || got.DurationID != f.DurationID ||
		got.Addr1 != f.Addr1 || got.Addr2 != f.Addr2 || got.Addr3 != f.Addr3 ||
		got.SeqCtrl != f.SeqCtrl || !bytes.Equal(got.Body, f.Body) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, f)
	}
}

func TestDataFrameRoundTripProperty(t *testing.T) {
	fn := func(body []byte) bool {
		f := sampleFrame(body)
		got, err := parseDataFrame(f.Marshal())
		return err == nil && bytes.Equal(got.Body, body)
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Error(err)
	}
}

func TestParseDataFrameRejectsCorruption(t *testing.T) {
	psdu := sampleFrame([]byte("x")).Marshal()
	psdu[5] ^= 0x01
	if _, err := parseDataFrame(psdu); err == nil {
		t.Error("corrupted frame accepted")
	}
	if _, err := parseDataFrame(make([]byte, 10)); err == nil {
		t.Error("short PSDU accepted")
	}
}

func TestDataFrameOverTheAir(t *testing.T) {
	// Full loop: MAC frame -> OFDM PHY -> receiver.
	f := sampleFrame([]byte("an actual 802.11 MPDU riding the excitation link"))
	psdu := f.Marshal()
	sig, err := NewTransmitter().Transmit(psdu, Rates[12])
	if err != nil {
		t.Fatal(err)
	}
	cap := appendSilence(sig, 150, 150)
	pkt, err := NewReceiver().Receive(cap)
	if err != nil {
		t.Fatal(err)
	}
	if !pkt.FCSOK {
		t.Fatal("FCS failed over the air")
	}
	if !bytes.Equal(pkt.PSDU, psdu) {
		t.Fatal("MPDU corrupted over the air")
	}
}

// parseDataFrame decodes a PSDU into a data frame, verifying the FCS: the
// reference Marshal's round trip is checked against.
func parseDataFrame(psdu []byte) (*DataFrame, error) {
	if len(psdu) < dataFrameHeaderLen+4 {
		return nil, fmt.Errorf("wifi: PSDU %d bytes too short for a data frame", len(psdu))
	}
	if !checkFCS(psdu) {
		return nil, fmt.Errorf("wifi: FCS check failed")
	}
	f := &DataFrame{
		FrameControl: binary.LittleEndian.Uint16(psdu[0:]),
		DurationID:   binary.LittleEndian.Uint16(psdu[2:]),
		SeqCtrl:      binary.LittleEndian.Uint16(psdu[22:]),
	}
	copy(f.Addr1[:], psdu[4:])
	copy(f.Addr2[:], psdu[10:])
	copy(f.Addr3[:], psdu[16:])
	f.Body = append([]byte(nil), psdu[dataFrameHeaderLen:len(psdu)-4]...)
	return f, nil
}
