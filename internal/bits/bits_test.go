package bits

import (
	"bytes"
	"hash/crc32"
	"testing"
	"testing/quick"
)

func TestFromBytesToBytesRoundTrip(t *testing.T) {
	in := []byte{0x00, 0xFF, 0xA5, 0x5A, 0x01, 0x80}
	bs := FromBytes(in)
	if len(bs) != len(in)*8 {
		t.Fatalf("bit length = %d, want %d", len(bs), len(in)*8)
	}
	out, err := ToBytes(bs)
	if err != nil {
		t.Fatalf("ToBytes: %v", err)
	}
	if !bytes.Equal(in, out) {
		t.Fatalf("round trip mismatch: %x vs %x", in, out)
	}
}

func TestFromBytesLSBFirst(t *testing.T) {
	bs := FromBytes([]byte{0x01})
	want := []byte{1, 0, 0, 0, 0, 0, 0, 0}
	if !bytes.Equal(bs, want) {
		t.Fatalf("0x01 = %v, want %v (LSB first)", bs, want)
	}
	bs = FromBytes([]byte{0x80})
	want = []byte{0, 0, 0, 0, 0, 0, 0, 1}
	if !bytes.Equal(bs, want) {
		t.Fatalf("0x80 = %v, want %v", bs, want)
	}
}

func TestToBytesErrors(t *testing.T) {
	if _, err := ToBytes(make([]byte, 7)); err == nil {
		t.Error("ToBytes accepted a 7-bit slice")
	}
	if _, err := ToBytes([]byte{0, 1, 2, 0, 0, 0, 0, 0}); err == nil {
		t.Error("ToBytes accepted a non-binary element")
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(data []byte) bool {
		out, err := ToBytes(FromBytes(data))
		return err == nil && bytes.Equal(out, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRepeatMajorityInverseProperty(t *testing.T) {
	// The redundancy decoder's view of Repeat: a majority vote over each
	// window of n repeated bits recovers the input.
	f := func(data []byte, nRaw uint8) bool {
		n := int(nRaw%7) + 1
		bs := FromBytes(data)
		rep := Repeat(bs, n)
		if len(rep) != len(bs)*n {
			return false
		}
		for i, b := range bs {
			ones := bytes.Count(rep[i*n:(i+1)*n], []byte{1})
			if (2*ones > n) != (b == 1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCRC32MatchesStdlib(t *testing.T) {
	cases := [][]byte{
		nil,
		{0x00},
		[]byte("123456789"),
		[]byte("The quick brown fox jumps over the lazy dog"),
	}
	for _, c := range cases {
		if got, want := CRC32IEEE(c), crc32.ChecksumIEEE(c); got != want {
			t.Errorf("CRC32IEEE(%q) = %08x, want %08x", c, got, want)
		}
	}
}

func TestCRC32MatchesStdlibProperty(t *testing.T) {
	f := func(data []byte) bool {
		return CRC32IEEE(data) == crc32.ChecksumIEEE(data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCRC16KnownVector(t *testing.T) {
	// CRC-16/CCITT (Kermit variant as used by 802.15.4): "123456789" -> 0x2189.
	if got := CRC16CCITT([]byte("123456789")); got != 0x2189 {
		t.Fatalf("CRC16CCITT = %04x, want 2189", got)
	}
}

func TestCRC16DetectsSingleBitErrors(t *testing.T) {
	msg := []byte{0xDE, 0xAD, 0xBE, 0xEF, 0x42}
	orig := CRC16CCITT(msg)
	for i := range msg {
		for b := 0; b < 8; b++ {
			msg[i] ^= 1 << uint(b)
			if CRC16CCITT(msg) == orig {
				t.Fatalf("single-bit flip at byte %d bit %d undetected", i, b)
			}
			msg[i] ^= 1 << uint(b)
		}
	}
}

func TestCRC24DetectsErrors(t *testing.T) {
	msg := []byte{0x01, 0x02, 0x03, 0x04}
	orig := CRC24BLE(msg, 0x555555)
	for i := range msg {
		msg[i] ^= 0x10
		if CRC24BLE(msg, 0x555555) == orig {
			t.Fatalf("byte %d corruption undetected", i)
		}
		msg[i] ^= 0x10
	}
	if CRC24BLE(msg, 0x555555) != orig {
		t.Fatal("CRC24 not deterministic")
	}
	if CRC24BLE(msg, 0x555555) == CRC24BLE(msg, 0xAAAAAA) {
		t.Fatal("CRC24 ignores init value")
	}
}

func TestRepeat(t *testing.T) {
	got := Repeat([]byte{1, 0}, 3)
	want := []byte{1, 1, 1, 0, 0, 0}
	if !bytes.Equal(got, want) {
		t.Fatalf("Repeat = %v, want %v", got, want)
	}
	if out := Repeat([]byte{1}, 0); out != nil {
		t.Errorf("Repeat n=0 = %v, want nil", out)
	}
}
