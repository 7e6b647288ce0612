package wifi

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"repro/internal/channel"
	"repro/internal/signal"
	"repro/internal/simd"
)

// TestReceivePinned pins the float64 bits of the receiver's data path on
// fixed captures: both channel estimates, every data symbol's equalised
// points before and after phase tracking, the demapped coded bits and
// the Viterbi output, in decode order. The goldens and the capture pin
// only see decided bits or the receiver's input; a 2⁻²⁰ relative change
// in the channel estimate, or a small rotation of it, leaves the bits of
// a clean capture alone, but not this digest. The lossy capture (a far
// tag and a 2500 Hz residual CFO) decodes some bits wrong, so the pin
// also covers decisions near the thresholds. The digests must hold in
// both dispatch modes and on builds without the asm kernels.
func TestReceivePinned(t *testing.T) {
	cases := []struct {
		name   string
		dist   float64
		cfoHz  float64
		rate   int
		lossy  bool
		digest string
	}{
		{"6M-2m", 2, 0, 6, false, "80d8cb48b6bef14eba6560a527457160f1f09bcafb2d2b8eccecc131bd4502b4"},
		{"6M-54m-cfo", 54, 2500, 6, true, "aea5deceb2d7621896da8f5df1d5fe0035ec43376785e77b84557d164748e402"},
		{"18M-8m-cfo", 8, 700, 18, false, "0ae45bb358c6f087cfe0c8828e8fadb743519975ef2fe41e0a00dacc1e79843a"},
	}
	prev := simd.Enabled()
	defer simd.SetEnabled(prev)
	modes := []bool{false}
	if simd.HWMode() != "" {
		modes = append(modes, true)
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, on := range modes {
				simd.SetEnabled(on)
				got, errs := receiveDigest(t, c.dist, c.cfoHz, Rates[c.rate])
				if (errs > 0) != c.lossy {
					t.Errorf("%s: %d payload bit errors, want lossy=%v", simd.Mode(), errs, c.lossy)
				}
				if got != c.digest {
					t.Errorf("%s: digest %s, want %s", simd.Mode(), got, c.digest)
				}
			}
		})
	}
}

// receiveDigest transmits a fixed 400-byte PSDU at rate through a LOS
// link dist metres from the receiver, decodes it with a stage observer
// attached, and returns the sha256 of every observed stage (a tag byte,
// then the float64 bits of the points or the bytes of the bits) and the
// number of payload bits decoded wrong.
func receiveDigest(t *testing.T, dist, cfoHz float64, rate Rate) (string, int) {
	t.Helper()
	psdu := make([]byte, 400)
	rand.New(rand.NewSource(11)).Read(psdu)
	tx := &Transmitter{ScramblerSeed: 0x5D, FixedSeed: true}
	wave, err := tx.Transmit(psdu, rate)
	if err != nil {
		t.Fatal(err)
	}
	link := channel.Link{
		Deployment: channel.LOS,
		TxPowerDBm: 11,
		SystemGain: channel.DefaultSystemGainDB,
		TagLossDB:  channel.DefaultTagLossDB,
		TxToTag:    1,
		TagToRx:    dist,
		NoiseFloor: channel.NoiseFloorFor(20e6, 6),
		CFOHz:      cfoHz,
		Seed:       5,
	}
	capt := signal.New(0, 0)
	if err := link.ApplyToWithPower(capt, wave, 400, false, 0); err != nil {
		t.Fatal(err)
	}

	h := sha256.New()
	var word [8]byte
	rx := NewReceiver()
	rx.observe = func(stage rxStage, pts []complex128, bits []byte) {
		h.Write([]byte{byte(stage)})
		for _, v := range pts {
			binary.LittleEndian.PutUint64(word[:], math.Float64bits(real(v)))
			h.Write(word[:])
			binary.LittleEndian.PutUint64(word[:], math.Float64bits(imag(v)))
			h.Write(word[:])
		}
		h.Write(bits)
	}
	pkt, err := rx.Receive(capt)
	if err != nil {
		t.Fatalf("receive: %v", err)
	}
	errs := 0
	for i, b := range pkt.PSDU {
		for x := b ^ psdu[i]; x != 0; x &= x - 1 {
			errs++
		}
	}
	return hex.EncodeToString(h.Sum(nil)), errs
}
