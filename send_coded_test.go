package freerider

import (
	"testing"

	"repro/internal/fec"
)

// TestSendCodedRoundTrip: the coded ladder must deliver payloads intact on
// a clean link for every radio, with the default code and a short one.
func TestSendCodedRoundTrip(t *testing.T) {
	codes := []CodingConfig{DefaultCodingConfig(), {N: 15, K: 9}}
	for _, r := range []Radio{WiFi, ZigBee, Bluetooth} {
		for _, cc := range codes {
			cc := cc
			opts := DefaultSendOptions()
			opts.Coding = &cc
			payload := patternBits(300)
			out, rep, err := SendDetailed(r, 8, payload, 3, opts)
			if err != nil {
				t.Fatalf("%v code (%d,%d): %v", r, cc.N, cc.K, err)
			}
			if !bitsEqual(out, payload) {
				t.Fatalf("%v code (%d,%d): payload corrupted", r, cc.N, cc.K)
			}
			if rep.Chunks == 0 {
				t.Fatalf("%v: no chunks recorded", r)
			}
		}
	}
}

// TestSendCodedChunksShrink: with coding on, each chunk carries only the
// post-FEC payload, so the same transfer spends more chunks than uncoded.
func TestSendCodedChunksShrink(t *testing.T) {
	payload := patternBits(500)
	_, plain, err := SendDetailed(WiFi, 8, payload, 9, DefaultSendOptions())
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultSendOptions()
	cc := CodingConfig{N: 15, K: 9}
	opts.Coding = &cc
	_, coded, err := SendDetailed(WiFi, 8, payload, 9, opts)
	if err != nil {
		t.Fatal(err)
	}
	if coded.Chunks <= plain.Chunks {
		t.Fatalf("coded transfer used %d chunks, uncoded %d; parity overhead should cost chunks",
			coded.Chunks, plain.Chunks)
	}
}

// TestSendCodedSingleAttemptMatchesHardPath pins the coded ladder to the
// plain decode: with Attempts=1 the transfer replays on a twin session,
// and lay.DecodeBits over each packet's DecodedTag must reproduce every
// delivered chunk and the transfer's corrected-symbol count.
func TestSendCodedSingleAttemptMatchesHardPath(t *testing.T) {
	const seed = 21
	cc := CodingConfig{N: 15, K: 9}
	opts := DefaultSendOptions()
	opts.Attempts = 1
	opts.Coding = &cc
	payload := patternBits(240)
	out, rep, err := SendDetailed(WiFi, 8, payload, seed, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bitsEqual(out, payload) {
		t.Fatal("payload corrupted")
	}

	// Twin session: same cfg and seed, same packet sequence, decoded by
	// lay.DecodeBits on each packet's hard decisions.
	cfg := DefaultConfig(WiFi, 8)
	cfg.Seed = seed
	fc := fec.Config(cc)
	cfg.Coding = &fc
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lay, ok := s.Layout()
	if !ok {
		t.Fatal("no layout")
	}
	var hard []byte
	corrected := 0
	for off := 0; off < len(payload); {
		hi := off + s.DataCapacity()
		if hi > len(payload) {
			hi = len(payload)
		}
		chunk := payload[off:hi]
		data := chunk
		if len(data) < lay.DataBits() {
			padded := make([]byte, lay.DataBits())
			copy(padded, data)
			data = padded
		}
		txBits, err := lay.EncodeBits(data)
		if err != nil {
			t.Fatal(err)
		}
		pr, err := s.RunPacket(txBits)
		if err != nil {
			t.Fatal(err)
		}
		if !pr.Decoded || len(pr.DecodedTag) < lay.CodedBits() {
			t.Fatalf("twin packet at off %d lost; Send delivered it, replay must too", off)
		}
		dec, n, ok := lay.DecodeBits(pr.DecodedTag)
		if !ok {
			t.Fatalf("hard-decision RS decode failed at off %d", off)
		}
		hard = append(hard, dec[:len(chunk)]...)
		corrected += n
		off = hi
	}
	if !bitsEqual(hard, out) {
		t.Fatal("Attempts=1 transfer diverges from the twin's hard-decision decode")
	}
	if corrected != rep.CorrectedSymbols {
		t.Fatalf("transfer corrected %d symbols, twin %d", rep.CorrectedSymbols, corrected)
	}
}

// TestSendCodedImpulseLosesChunk pins the one measured cost of decoding
// each copy alone: under impulse noise over a weak t=1 code (WiFi 8 m,
// RS(15,13), 12 attempts, seed 4) every copy of chunk 0 is hit and none
// RS-decodes, so the transfer fails. A ladder that summed the copies'
// soft decisions delivered this chunk on its seventh packet.
func TestSendCodedImpulseLosesChunk(t *testing.T) {
	fp, err := ParseFaultProfile("impulse:prob=0.01,power=-55")
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultSendOptions()
	opts.Attempts = 12
	opts.Faults = fp
	cc := CodingConfig{N: 15, K: 13}
	opts.Coding = &cc
	_, rep, err := SendDetailed(WiFi, 8, patternBits(160), 4, opts)
	if err == nil {
		t.Fatal("transfer delivered; the decode-alone ladder lost chunk 0 here")
	}
	if rep.Chunks != 0 || rep.Packets != opts.Attempts || rep.CorruptPackets == 0 {
		t.Fatalf("want chunk 0 lost after %d packets with corrupt copies among them; report %+v",
			opts.Attempts, rep)
	}
}

// TestSendCodedQuaternaryFallback: the coded ladder composes with the
// scheme ladder — a quaternary coded transfer under bursty faults must
// still deliver, re-encoding the chunk across the layout change.
func TestSendCodedQuaternaryFallback(t *testing.T) {
	fp, err := ParseFaultProfile("bursty-wifi")
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultSendOptions()
	opts.Attempts = 6
	opts.Quaternary = true
	opts.Faults = fp
	cc := DefaultCodingConfig()
	opts.Coding = &cc
	payload := patternBits(400)
	out, rep, err := SendDetailed(WiFi, 8, payload, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bitsEqual(out, payload) {
		t.Fatal("payload corrupted")
	}
	_ = rep
}

// TestSendCodedDeliversOnSoloDecode pins a transfer whose chunk is saved
// by a retry that decodes on its own after earlier, misaligned copies
// failed: ZigBee at 18 m, seed 6, RS(15,9), four attempts per chunk.
func TestSendCodedDeliversOnSoloDecode(t *testing.T) {
	cc := CodingConfig{N: 15, K: 9}
	opts := DefaultSendOptions()
	opts.Attempts = 4
	opts.Coding = &cc
	payload := patternBits(400)
	out, _, err := SendDetailed(ZigBee, 18, payload, 6, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bitsEqual(out, payload) {
		t.Fatal("payload corrupted")
	}
}
