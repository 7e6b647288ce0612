package freerider

import (
	"bytes"
	"errors"
	"testing"
)

func TestSendRoundTrip(t *testing.T) {
	msg := []byte{1, 0, 1, 1, 0, 0, 1, 0, 1, 1}
	for _, r := range []Radio{WiFi, ZigBee, Bluetooth} {
		got, err := Send(r, 3, msg, 42)
		if err != nil {
			t.Fatalf("%v: %v", r, err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("%v: decoded %v, want %v", r, got, msg)
		}
	}
}

func TestSendMultiPacket(t *testing.T) {
	// More bits than one ZigBee packet carries (~50) forces multiple
	// excitation packets.
	msg := make([]byte, 120)
	for i := range msg {
		msg[i] = byte(i % 2)
	}
	got, err := Send(ZigBee, 2, msg, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("multi-packet message corrupted")
	}
}

func TestSendValidation(t *testing.T) {
	if _, err := Send(WiFi, 3, []byte{0, 2}, 1); err == nil {
		t.Error("non-binary bit accepted")
	}
}

func TestSendFailsOutOfRange(t *testing.T) {
	if _, err := Send(Bluetooth, 30, []byte{1, 0, 1}, 1); err == nil {
		t.Error("30 m Bluetooth backscatter should fail")
	}
}

func TestSendRetriesLostChunk(t *testing.T) {
	// Bluetooth near its range edge with a seed whose first packet fades
	// out: a single-attempt send loses the transfer, the default budget
	// retransmits the chunk and delivers the message intact.
	msg := []byte{1, 0, 1, 1, 0, 0, 1, 0}
	const dist, seed = 9, 4
	if _, err := SendWithOptions(Bluetooth, dist, msg, seed, SendOptions{Attempts: 1}); err == nil {
		t.Fatal("single-attempt send should lose the faded packet")
	}
	got, err := Send(Bluetooth, dist, msg, seed)
	if err != nil {
		t.Fatalf("retransmission did not rescue the transfer: %v", err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("decoded %v, want %v", got, msg)
	}
}

func TestNetworkFacade(t *testing.T) {
	res, err := RunNetwork(DefaultNetworkConfig(FramedSlottedAloha, 8), 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalBits() == 0 {
		t.Fatal("no data delivered")
	}
	j, err := res.FairnessIndex()
	if err != nil || j <= 0 {
		t.Fatalf("fairness %g (%v)", j, err)
	}
}

func TestPLMAndPowerFacades(t *testing.T) {
	if r := DefaultPLMScheme().RateBps(); r < 400 || r > 650 {
		t.Fatalf("PLM rate %g", r)
	}
	p := TagPower(WiFi, 20e6)
	if total := p.TotalUW(); total < 25 || total > 40 {
		t.Fatalf("tag power %g uW", total)
	}
	if TagPower(Bluetooth, 500e3).TotalUW() >= p.TotalUW() {
		t.Fatal("slow-toggle tag should draw less")
	}
}

func TestDefaultConfigDistance(t *testing.T) {
	cfg := DefaultConfig(WiFi, 17)
	if cfg.Link.TagToRx != 17 {
		t.Fatal("distance not applied")
	}
}

func TestRunNetworkFirmwareLevel(t *testing.T) {
	res, err := RunNetworkFirmwareLevel(6, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalBits() == 0 {
		t.Fatal("no data delivered at firmware level")
	}
}

// TestStreamAPIRejectsUnknownRadio pins that every stream entry point
// refuses a Radio value outside WiFi, ZigBee and Bluetooth with
// ErrUnknownRadio, instead of silently running the WiFi rules.
func TestStreamAPIRejectsUnknownRadio(t *testing.T) {
	ref := []byte{0, 1, 0, 1, 1, 0, 1, 0}
	for _, r := range []Radio{Radio(7), Radio(-1)} {
		cases := []struct {
			name string
			call func() error
		}{
			{"EncodeStream", func() error {
				_, _, err := EncodeStream(r, ref, []byte{1, 0}, 4)
				return err
			}},
			{"DecodeStream", func() error {
				_, _, err := DecodeStream(r, ref, ref, 4)
				return err
			}},
			{"DecodeDifferentialStream", func() error {
				_, err := DecodeDifferentialStream(r, ref, 4)
				return err
			}},
		}
		for _, c := range cases {
			if err := c.call(); !errors.Is(err, ErrUnknownRadio) {
				t.Errorf("%s(%v): err = %v, want ErrUnknownRadio", c.name, r, err)
			}
		}
	}
	if _, err := ParseRadio("lora"); !errors.Is(err, ErrUnknownRadio) {
		t.Errorf("ParseRadio(lora): err = %v, want ErrUnknownRadio", err)
	}
}
