package freerider

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
)

// TestDecodeBatchMatchesSerialCalls pins the batch decode contract: slot i
// must be exactly what the serial DecodeStream / DecodeDifferentialStream
// call returns for request i, for any worker count, including slots whose
// request is malformed.
func TestDecodeBatchMatchesSerialCalls(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	stream := func(r Radio, n int) []byte {
		limit := int(streamAlphabet(r))
		s := make([]byte, n)
		for i := range s {
			s[i] = byte(rng.Intn(limit))
		}
		return s
	}
	var reqs []DecodeRequest
	for _, r := range []Radio{WiFi, ZigBee, Bluetooth} {
		ref := stream(r, 96)
		rx, _, err := EncodeStream(r, ref, []byte{1, 0, 1, 1}, 24)
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, DecodeRequest{Radio: r, Ref: ref, RX: rx, Window: 24})
		feats := make([]byte, 64)
		for i := range feats {
			feats[i] = byte(rng.Intn(2))
		}
		reqs = append(reqs, DecodeRequest{Radio: r, RX: feats, Window: 8, Single: true})
	}
	// A malformed slot: out-of-alphabet rx element must error alone.
	reqs = append(reqs, DecodeRequest{Radio: WiFi, Ref: []byte{0, 1}, RX: []byte{7, 1}, Window: 2})

	want := make([]DecodeResult, len(reqs))
	for i, r := range reqs {
		if r.Single {
			ws, err := DecodeDifferentialStream(r.Radio, r.RX, r.Window)
			want[i] = DecodeResult{Windows: ws, Err: err}
			continue
		}
		ws, dropped, err := DecodeStream(r.Radio, r.Ref, r.RX, r.Window)
		want[i] = DecodeResult{Windows: ws, Dropped: dropped, Err: err}
	}
	for _, workers := range []int{1, 3, 0} {
		got := DecodeBatch(reqs, workers)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d results for %d requests", workers, len(got), len(reqs))
		}
		for i := range want {
			if (got[i].Err == nil) != (want[i].Err == nil) {
				t.Fatalf("workers=%d slot %d: err %v, want %v", workers, i, got[i].Err, want[i].Err)
			}
			if got[i].Dropped != want[i].Dropped || !reflect.DeepEqual(got[i].Windows, want[i].Windows) {
				t.Fatalf("workers=%d slot %d: batch result diverged from serial call", workers, i)
			}
		}
	}
	if got := DecodeBatch(nil, 2); len(got) != 0 {
		t.Fatalf("empty batch: got %d results", len(got))
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
			{"DecodeBatch/dual", func() error {
				return DecodeBatch([]DecodeRequest{{Radio: r, Ref: ref, RX: ref, Window: 4}}, 1)[0].Err
			}},
			{"DecodeBatch/single", func() error {
				return DecodeBatch([]DecodeRequest{{Radio: r, RX: ref, Window: 4, Single: true}}, 1)[0].Err
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
