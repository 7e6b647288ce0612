package bluetooth

import (
	"bytes"
	"testing"

	"repro/internal/signal"
)

func TestAdvPDURoundTrip(t *testing.T) {
	p := &AdvPDU{AdvAddr: [6]byte{1, 2, 3, 4, 5, 6}, AdvData: []byte("freerider tag")}
	b, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	// ADV_NONCONN_IND header, then the address and the data.
	want := append([]byte{0x02, byte(6 + len(p.AdvData)), 1, 2, 3, 4, 5, 6}, p.AdvData...)
	if !bytes.Equal(b, want) {
		t.Fatalf("marshalled %x, want %x", b, want)
	}
}

func TestAdvPDUValidation(t *testing.T) {
	p := &AdvPDU{AdvData: make([]byte, MaxAdvData+1)}
	if _, err := p.Marshal(); err == nil {
		t.Error("oversized AdvData accepted")
	}
	if b, err := (&AdvPDU{AdvData: make([]byte, MaxAdvData)}).Marshal(); err != nil || len(b) != 8+MaxAdvData {
		t.Errorf("full AdvData: %d bytes, %v", len(b), err)
	}
}

func TestAdvPDUOverTheAir(t *testing.T) {
	p := &AdvPDU{AdvAddr: [6]byte{0xA, 0xB, 0xC, 0xD, 0xE, 0xF},
		AdvData: []byte("ble advert")}
	b, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	sig, err := NewTransmitter().Transmit(b)
	if err != nil {
		t.Fatal(err)
	}
	cap := signal.New(SampleRate, len(sig.Samples)+300)
	copy(cap.Samples[100:], sig.Samples)
	f, err := NewReceiver().Receive(cap)
	if err != nil {
		t.Fatal(err)
	}
	if !f.CRCOK {
		t.Fatal("CRC failed")
	}
	if !bytes.Equal(f.Payload, b) {
		t.Fatal("PDU corrupted over the air")
	}
}
