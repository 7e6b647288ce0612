package freerider_test

// Golden-vector regression tests: known-good end-to-end vectors for all
// three radios, checked into testdata/golden/. Each vector pins the
// full PHY path — excitation synthesis, codeword translation, channel,
// adjacent-channel receiver, differential decode — plus the stream-level
// encode/decode codec, so *any* drift in a PHY encode/decode path fails
// loudly here before it silently shifts the reproduced figures.
//
// Regenerate after an intentional PHY change with:
//
//	go test -run TestGoldenVectors -update .
//
// and eyeball the diff: decoded bits or error counts moving is a
// calibration event, not a formality.

import (
	"bytes"
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	freerider "repro"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden vectors from current behaviour")

// goldenPacket pins one RunPacket call with fixed tag data.
type goldenPacket struct {
	TagBits    string `json:"tag_bits"`
	Detected   bool   `json:"detected"`
	Decoded    bool   `json:"decoded"`
	DecodedTag string `json:"decoded_tag"`
	TagBitsIn  int    `json:"tag_bits_in"`
	BitErrors  int    `json:"bit_errors"`
}

// goldenRun pins a short aggregated Run (which RunParallel must match).
type goldenRun struct {
	Packets        int `json:"packets"`
	PacketsLost    int `json:"packets_lost"`
	TagBitsSent    int `json:"tag_bits_sent"`
	TagBitsDecoded int `json:"tag_bits_decoded"`
	BitErrors      int `json:"bit_errors"`
}

// goldenStream pins the stream-level codec: EncodeStream's exact output
// and the DecodeStream round trip over it.
type goldenStream struct {
	Window  int    `json:"window"`
	Ref     string `json:"ref"`
	TagBits string `json:"tag_bits"`
	Encoded string `json:"encoded"`
	Decoded string `json:"decoded"`
}

// goldenSingle pins one RunPacket call decoded in single-receiver
// (Double-decker) mode: same pinned tag bits as the dual-mode packet,
// decoded from the backscattered capture alone.
type goldenSingle struct {
	TagBits    string `json:"tag_bits"`
	Detected   bool   `json:"detected"`
	Decoded    bool   `json:"decoded"`
	DecodedTag string `json:"decoded_tag"`
	BitErrors  int    `json:"bit_errors"`
}

type goldenVector struct {
	Radio       string       `json:"radio"`
	DistanceM   float64      `json:"distance_m"`
	PayloadSize int          `json:"payload_size"`
	Seed        int64        `json:"seed"`
	Capacity    int          `json:"capacity_bits"`
	Packet      goldenPacket `json:"packet"`
	Single      goldenSingle `json:"single"`
	Run         goldenRun    `json:"run"`
	Stream      goldenStream `json:"stream"`
}

// goldenConfig builds the session config a radio's vector runs under:
// calibrated defaults at a mid-range distance, with the WiFi payload
// shrunk so the vector regenerates in seconds.
func goldenConfig(r freerider.Radio) freerider.Config {
	dist := map[freerider.Radio]float64{
		freerider.WiFi: 5, freerider.ZigBee: 5, freerider.Bluetooth: 3,
	}[r]
	cfg := freerider.DefaultConfig(r, dist)
	cfg.Seed = 42
	if r == freerider.WiFi {
		cfg.PayloadSize = 256
	}
	return cfg
}

func hexStream(vals []byte) string {
	const digits = "0123456789abcdef"
	out := make([]byte, len(vals))
	for i, v := range vals {
		out[i] = digits[v&0x0f]
	}
	return string(out)
}

// computeGolden runs the current implementation into a vector.
func computeGolden(t *testing.T, r freerider.Radio) goldenVector {
	t.Helper()
	cfg := goldenConfig(r)
	v := goldenVector{
		Radio:       freerider.RadioKey(r),
		DistanceM:   cfg.Link.TagToRx,
		PayloadSize: cfg.PayloadSize,
		Seed:        cfg.Seed,
	}

	s, err := freerider.NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	v.Capacity = s.Capacity()

	// One deterministic RunPacket with fixed tag data.
	rng := rand.New(rand.NewSource(cfg.Seed))
	tagBits := make([]byte, v.Capacity)
	for i := range tagBits {
		tagBits[i] = byte(rng.Intn(2))
	}
	pr, err := s.RunPacket(tagBits)
	if err != nil {
		t.Fatal(err)
	}
	v.Packet = goldenPacket{
		TagBits:    hexStream(tagBits),
		Detected:   pr.Detected,
		Decoded:    pr.Decoded,
		DecodedTag: hexStream(pr.DecodedTag),
		TagBitsIn:  pr.TagBits,
		BitErrors:  pr.BitErrors,
	}

	// The same pinned packet decoded single-receiver: a fresh session in
	// SingleReceiver mode sees the identical sequential channel draw, so
	// the vector isolates the decode rule, not the channel.
	singleCfg := cfg
	singleCfg.ReceiverMode = freerider.SingleReceiver
	ss, err := freerider.NewSession(singleCfg)
	if err != nil {
		t.Fatal(err)
	}
	spr, err := ss.RunPacket(tagBits)
	if err != nil {
		t.Fatal(err)
	}
	v.Single = goldenSingle{
		TagBits:    hexStream(tagBits),
		Detected:   spr.Detected,
		Decoded:    spr.Decoded,
		DecodedTag: hexStream(spr.DecodedTag),
		BitErrors:  spr.BitErrors,
	}

	// Short aggregated run on derived per-packet streams (a fresh
	// session so the RunPacket above cannot shift it).
	s2, err := freerider.NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s2.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	v.Run = goldenRun{
		Packets:        res.Packets,
		PacketsLost:    res.PacketsLost,
		TagBitsSent:    res.TagBitsSent,
		TagBitsDecoded: res.TagBitsDecoded,
		BitErrors:      res.BitErrors,
	}

	// Stream-level codec round trip.
	const window = 4
	limit := 2
	if r == freerider.ZigBee {
		limit = 16
	}
	ref := make([]byte, 64)
	streamTag := make([]byte, len(ref)/window)
	srng := rand.New(rand.NewSource(cfg.Seed + 1))
	for i := range ref {
		ref[i] = byte(srng.Intn(limit))
	}
	for i := range streamTag {
		streamTag[i] = byte(srng.Intn(2))
	}
	enc, used, err := freerider.EncodeStream(r, ref, streamTag, window)
	if err != nil {
		t.Fatal(err)
	}
	if used != len(streamTag) {
		t.Fatalf("stream vector consumed %d of %d tag bits", used, len(streamTag))
	}
	ws, _, err := freerider.DecodeStream(r, ref, enc, window)
	if err != nil {
		t.Fatal(err)
	}
	v.Stream = goldenStream{
		Window:  window,
		Ref:     hexStream(ref),
		TagBits: hexStream(streamTag),
		Encoded: hexStream(enc),
		Decoded: hexStream(freerider.DecisionBits(ws)),
	}
	return v
}

func goldenPath(radio string) string {
	return filepath.Join("testdata", "golden", radio+".json")
}

func TestGoldenVectors(t *testing.T) {
	for _, r := range []freerider.Radio{freerider.WiFi, freerider.ZigBee, freerider.Bluetooth} {
		r := r
		t.Run(freerider.RadioKey(r), func(t *testing.T) {
			got := computeGolden(t, r)
			raw, err := json.MarshalIndent(got, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			raw = append(raw, '\n')
			path := goldenPath(freerider.RadioKey(r))

			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, raw, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("rewrote %s", path)
				return
			}

			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden vector (run `go test -run TestGoldenVectors -update .`): %v", err)
			}
			if !bytes.Equal(raw, want) {
				t.Fatalf("PHY output drifted from golden vector %s.\n"+
					"If this change is intentional, regenerate with\n"+
					"  go test -run TestGoldenVectors -update .\n"+
					"and review the diff.\n--- got ---\n%s\n--- want ---\n%s",
					path, raw, want)
			}

			// The stream round trip must stay lossless: decoded == tag bits.
			if got.Stream.Decoded != got.Stream.TagBits {
				t.Fatalf("stream codec no longer round-trips: decoded %s, sent %s",
					got.Stream.Decoded, got.Stream.TagBits)
			}
		})
	}
}

// TestGoldenVectorsParallelIdentity re-runs each vector's aggregate
// through RunParallel and requires bit-identity with the golden Run — the
// serving layer leans on exactly this property when it shares pooled
// sessions across concurrent requests.
func TestGoldenVectorsParallelIdentity(t *testing.T) {
	for _, r := range []freerider.Radio{freerider.ZigBee, freerider.Bluetooth} {
		r := r
		t.Run(freerider.RadioKey(r), func(t *testing.T) {
			raw, err := os.ReadFile(goldenPath(freerider.RadioKey(r)))
			if err != nil {
				t.Skipf("golden vector not generated yet: %v", err)
			}
			var want goldenVector
			if err := json.Unmarshal(raw, &want); err != nil {
				t.Fatal(err)
			}
			s, err := freerider.NewSession(goldenConfig(r))
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.RunParallel(want.Run.Packets, 4)
			if err != nil {
				t.Fatal(err)
			}
			got := goldenRun{
				Packets:        res.Packets,
				PacketsLost:    res.PacketsLost,
				TagBitsSent:    res.TagBitsSent,
				TagBitsDecoded: res.TagBitsDecoded,
				BitErrors:      res.BitErrors,
			}
			if got != want.Run {
				t.Fatalf("RunParallel diverged from golden Run: %+v != %+v", got, want.Run)
			}
		})
	}
}
