package wifi

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/signal"
)

// sortedMbps lists the rate table's keys in ascending order.
func sortedMbps() []int {
	out := make([]int, 0, len(Rates))
	for m := range Rates {
		out = append(out, m)
	}
	sort.Ints(out)
	return out
}

// poisonInt16Scratch leaves the pooled arena's next int16 buffers full of
// +1 gains, so a decode that reads a gain slot it never wrote (a punctured
// slot it failed to clear) decodes differently from the reference.
func poisonInt16Scratch() {
	a := signal.GetArena()
	for i := 0; i < 4; i++ {
		q := a.Int16Uninit(1 << 16)
		for j := range q {
			q[j] = 1
		}
	}
	a.Release()
}

// requireReferenceDecode fails unless Receive and the unfused reference
// chain return the same error, or packets with equal PSDU, RawBits,
// DemappedBits, FCSOK and PilotPhases.
func requireReferenceDecode(t *testing.T, rx *Receiver, cap *signal.Signal) *RxPacket {
	t.Helper()
	poisonInt16Scratch()
	got, err := rx.Receive(cap)
	want, werr := refReceive(rx, cap)
	if err != werr {
		t.Fatalf("Receive error %v, reference %v", err, werr)
	}
	requireSamePacket(t, got, want)
	return got
}

// TestDecodeFusedMatchesReference holds the receiver's fused bit path
// (demap into gain slots, Viterbi, table seed recovery, table descramble)
// to the unfused chain at all eight rates, over random PSDUs, scrambler
// seeds and noise levels from clean to well past the decoding threshold,
// with pilot tracking and pilot-phase collection toggled.
func TestDecodeFusedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	noises := []float64{0, 0.01, 0.05, 0.2, 0.6}
	failed, clean := 0, 0
	for _, mbps := range sortedMbps() {
		for trial := 0; trial < 10; trial++ {
			psdu := make([]byte, 1+rng.Intn(300))
			rng.Read(psdu)
			psdu = AppendFCS(psdu)
			tx := &Transmitter{ScramblerSeed: byte(1 + rng.Intn(127)), FixedSeed: true}
			sig, err := tx.Transmit(psdu, Rates[mbps])
			if err != nil {
				t.Fatal(err)
			}
			cap := appendSilence(sig, 50+rng.Intn(200), 100)
			if p := noises[trial%len(noises)]; p > 0 {
				cap.AddAWGN(p, signal.NewNoise(rng.Int63()))
			}
			rx := NewReceiver()
			rx.PilotPhaseTracking = trial%3 == 1
			rx.CollectPilotPhases = trial%2 == 1
			pkt := requireReferenceDecode(t, rx, cap)
			switch {
			case pkt == nil || !pkt.FCSOK:
				failed++
			case bytes.Equal(pkt.PSDU, psdu):
				clean++
			}
		}
	}
	// Both outcomes must occur, or the comparison misses the error paths
	// (or the decoded ones).
	if failed == 0 || clean == 0 {
		t.Fatalf("%d clean and %d failed decodes; want both", clean, failed)
	}
}

// TestCodedBitsMatchesReference holds CodedBits to ConvEncode → Puncture →
// InterleaveSymbols at all eight rates.
func TestCodedBitsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, mbps := range sortedMbps() {
		for _, n := range []int{1, 2, 37, 1500} {
			psdu := make([]byte, n)
			rng.Read(psdu)
			seed := byte(1 + rng.Intn(127))
			got, err := CodedBits(psdu, Rates[mbps], seed)
			if err != nil {
				t.Fatal(err)
			}
			want, err := refCodedBits(psdu, Rates[mbps], seed)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%d Mbps, %d B, seed %#x: CodedBits differs from the unfused chain", mbps, n, seed)
			}
		}
	}
}

// TestRecoverScramblerSeedMatchesSearch holds the cycle-table seed
// recovery to the LFSR search on all 128 seven-bit inputs, zeros
// included.
func TestRecoverScramblerSeedMatchesSearch(t *testing.T) {
	for v := 0; v < 128; v++ {
		first7 := make([]byte, 7)
		for i := range first7 {
			first7[i] = byte(v>>(6-i)) & 1
		}
		if got, want := RecoverScramblerSeed(first7), recoverSeedSearch(first7); got != want {
			t.Errorf("bits %07b: seed %#x, search %#x", v, got, want)
		}
	}
}

// TestRxSlotsArePermutations checks each slot table hits every unpunctured
// rate-1/2 slot of a symbol exactly once and no punctured one.
func TestRxSlotsArePermutations(t *testing.T) {
	for _, r := range Rates {
		slots := rxSlots[r.Modulation][r.Coding]
		if len(slots) != r.NCBPS {
			t.Fatalf("%d Mbps: %d slots, want NCBPS=%d", r.Mbps, len(slots), r.NCBPS)
		}
		pattern := puncturePattern(r.Coding)
		hit := make([]int, 2*r.NDBPS)
		for _, k := range slots {
			hit[k]++
		}
		for k, n := range hit {
			want := 0
			if pattern[(k/2)%len(pattern)][k%2] {
				want = 1
			}
			if n != want {
				t.Fatalf("%d Mbps: slot %d written %d times, want %d", r.Mbps, k, n, want)
			}
		}
	}
}
