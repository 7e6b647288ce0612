package channel

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/signal"
	"repro/internal/simd"
)

func TestPathLossMonotone(t *testing.T) {
	f := func(a, b float64) bool {
		a = math.Abs(math.Mod(a, 50)) + 0.2
		b = math.Abs(math.Mod(b, 50)) + 0.2
		if a > b {
			a, b = b, a
		}
		return LOS.PathLossDB(a) <= LOS.PathLossDB(b)+1e-9 &&
			NLOS.PathLossDB(a) <= NLOS.PathLossDB(b)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPathLossReference(t *testing.T) {
	// At 1 m, LOS loss equals the reference loss (no walls).
	if got := LOS.PathLossDB(1); math.Abs(got-40) > 1e-9 {
		t.Fatalf("LOS PL(1m) = %g, want 40", got)
	}
	// 10x distance adds 10*exponent dB.
	if d := LOS.PathLossDB(10) - LOS.PathLossDB(1); math.Abs(d-19) > 1e-9 {
		t.Fatalf("LOS decade loss %g, want 19", d)
	}
}

func TestNLOSWallSteps(t *testing.T) {
	// One wall before 22 m, two after.
	within := NLOS.PathLossDB(10) - (NLOS.RefLossDB + 10*NLOS.Exponent*math.Log10(10))
	if math.Abs(within-5) > 1e-9 {
		t.Fatalf("NLOS wall loss at 10m = %g, want 5", within)
	}
	beyond := NLOS.PathLossDB(25) - (NLOS.RefLossDB + 10*NLOS.Exponent*math.Log10(25))
	if math.Abs(beyond-19) > 1e-9 {
		t.Fatalf("NLOS wall loss at 25m = %g, want 19", beyond)
	}
}

func TestPathLossClampsTinyDistance(t *testing.T) {
	if LOS.PathLossDB(0) < 0 || math.IsInf(LOS.PathLossDB(0), -1) {
		t.Fatal("zero distance produced nonsense loss")
	}
}

func wifiLOSLink(d2 float64) Link {
	return Link{
		Deployment: LOS,
		TxPowerDBm: 11,
		SystemGain: DefaultSystemGainDB,
		TagLossDB:  DefaultTagLossDB,
		TxToTag:    1,
		TagToRx:    d2,
		NoiseFloor: NoiseFloorFor(20e6, 6),
		Seed:       1,
	}
}

func TestBackscatterRSSIAnchors(t *testing.T) {
	// Calibration anchor: WiFi LOS at 42 m should sit near the paper's
	// reported -92 dBm (Fig 10c), within a few dB.
	got := wifiLOSLink(42).BackscatterRSSI()
	if got < -96 || got > -88 {
		t.Fatalf("RSSI(42m) = %.1f dBm, want about -92", got)
	}
	// Close range around -70 dBm (Fig 10c at ~2 m).
	got = wifiLOSLink(2).BackscatterRSSI()
	if got < -74 || got > -62 {
		t.Fatalf("RSSI(2m) = %.1f dBm, want about -68", got)
	}
}

func TestSNRPositiveInsideRange(t *testing.T) {
	// The link must have positive SNR at 42 m (paper still decodes there)
	// and strongly positive at 5 m.
	if snr := wifiLOSLink(42).SNRdB(); snr < 0 || snr > 12 {
		t.Fatalf("SNR(42m) = %.1f dB, want small positive", snr)
	}
	if snr := wifiLOSLink(5).SNRdB(); snr < 15 {
		t.Fatalf("SNR(5m) = %.1f dB, want > 15", snr)
	}
}

// apply runs ApplyToWithPower into a fresh capture, letting it measure
// the source's power.
func apply(l Link, s *signal.Signal, headroom int, excludeTagLoss bool) (*signal.Signal, error) {
	out := signal.New(0, 0)
	return out, l.ApplyToWithPower(out, s, headroom, excludeTagLoss, 0)
}

func TestApplySetsPowerAndNoise(t *testing.T) {
	s := signal.New(1e6, 20000)
	for i := range s.Samples {
		s.Samples[i] = 2 // power 4, must be normalised away
	}
	l := wifiLOSLink(10)
	out, err := apply(l, s, 500, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Samples) != 21000 {
		t.Fatalf("output length %d", len(out.Samples))
	}
	// Mid-section power = RSSI + noise floor power.
	mid := &signal.Signal{Rate: out.Rate, Samples: out.Samples[500:20500]}
	wantP := signal.DBToPower(l.BackscatterRSSI()) + signal.DBToPower(l.NoiseFloor)
	if p := mid.MeanPower(); math.Abs(p-wantP) > 0.25*wantP {
		t.Fatalf("mid power %g, want about %g", p, wantP)
	}
	// Headroom is noise only.
	head := &signal.Signal{Rate: out.Rate, Samples: out.Samples[:500]}
	floor := signal.DBToPower(l.NoiseFloor)
	if p := head.MeanPower(); p > 10*floor {
		t.Fatalf("headroom power %g way above noise floor %g", p, floor)
	}
}

func TestApplyExcludeTagLoss(t *testing.T) {
	s := signal.New(1e6, 5000)
	for i := range s.Samples {
		s.Samples[i] = 1
	}
	l := wifiLOSLink(5)
	l.NoiseFloor = -200 // effectively none, isolate the gain path
	with, err := apply(l, s, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	without, err := apply(l, s, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	d := signal.PowerDB(without.MeanPower()) - signal.PowerDB(with.MeanPower())
	if math.Abs(d-l.TagLossDB) > 0.1 {
		t.Fatalf("excludeTagLoss difference %g dB, want %g", d, l.TagLossDB)
	}
}

func TestApplyRejectsEmpty(t *testing.T) {
	l := wifiLOSLink(5)
	if _, err := apply(l, signal.New(1e6, 0), 10, false); err == nil {
		t.Error("empty signal accepted")
	}
	if _, err := apply(l, signal.New(1e6, 100), 10, false); err == nil {
		t.Error("zero-power signal accepted")
	}
}

func TestApplySNR(t *testing.T) {
	s := signal.New(1e6, 50000)
	for i := range s.Samples {
		s.Samples[i] = 1
	}
	out, err := ApplySNR(s, 10, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Total power = 10 (signal) + 1 (noise).
	if p := out.MeanPower(); math.Abs(p-11) > 1 {
		t.Fatalf("power %g, want about 11", p)
	}
}

func TestApplySNRRejectsDegenerateInput(t *testing.T) {
	if _, err := ApplySNR(nil, 10, 0, 1); err == nil {
		t.Error("nil signal accepted")
	}
	if _, err := ApplySNR(signal.New(1e6, 0), 10, 0, 1); err == nil {
		t.Error("empty signal accepted")
	}
	// The bug this guards against: a zero-power input used to come back as
	// a plausible-looking noise-only capture instead of an error.
	if _, err := ApplySNR(signal.New(1e6, 100), 10, 0, 1); err == nil {
		t.Error("zero-power signal accepted")
	}
}

func TestExcitationRSSIAtTagDecaysWithDistance(t *testing.T) {
	a := wifiLOSLink(5)
	b := wifiLOSLink(5)
	b.TxToTag = 4
	if a.ExcitationRSSIAtTag() <= b.ExcitationRSSIAtTag() {
		t.Fatal("farther tag should see less excitation power")
	}
}

func TestDeterministicNoise(t *testing.T) {
	s := signal.New(1e6, 100)
	for i := range s.Samples {
		s.Samples[i] = 1
	}
	l := wifiLOSLink(5)
	a, _ := apply(l, s, 10, false)
	b, _ := apply(l, s, 10, false)
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			t.Fatal("same seed gave different captures")
		}
	}
}

func TestMultipathAddsEchoEnergy(t *testing.T) {
	s := signal.New(20e6, 4000)
	for i := range s.Samples {
		s.Samples[i] = 1
	}
	l := wifiLOSLink(5)
	l.NoiseFloor = -200
	l.Multipath = []Tap{{Delay: 400e-9, GainDB: -6}}
	out, err := apply(l, s, 100, false)
	if err != nil {
		t.Fatal(err)
	}
	// Echo arrives 8 samples late: the tail beyond the direct path must
	// carry energy at -6 dB relative to the passband.
	direct := signal.DBToPower(l.BackscatterRSSI())
	tail := out.Samples[100+4000 : 100+4008]
	var tailP float64
	for _, v := range tail {
		tailP += real(v)*real(v) + imag(v)*imag(v)
	}
	tailP /= 8
	want := direct * signal.DBToPower(-6)
	if tailP < want/2 || tailP > want*2 {
		t.Fatalf("echo tail power %g, want about %g", tailP, want)
	}
}

// TestFadeModelConfig: FadingK is the fading model's one setting. K <= 0
// pins the gain to 1; a small K (near-Rayleigh) varies the packet power
// across seeds.
func TestFadeModelConfig(t *testing.T) {
	s := signal.New(1e6, 2000)
	for i := range s.Samples {
		s.Samples[i] = 1
	}
	l := wifiLOSLink(5)
	l.NoiseFloor = -200

	for _, k := range []float64{0, -1} {
		l.FadingK = k
		out, err := apply(l, s, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := signal.PowerDB(out.MeanPower()), l.BackscatterRSSI(); math.Abs(got-want) > 1e-6 {
			t.Fatalf("K=%g power %g, want exactly %g", k, got, want)
		}
	}

	l.FadingK = 0.01
	var powers []float64
	for seed := int64(1); seed <= 6; seed++ {
		l.Seed = seed
		out, err := apply(l, s, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		powers = append(powers, signal.PowerDB(out.MeanPower()))
	}
	varied := false
	for _, p := range powers[1:] {
		if math.Abs(p-powers[0]) > 0.5 {
			varied = true
		}
	}
	if !varied {
		t.Fatalf("near-Rayleigh fading produced constant power %v", powers)
	}
}

func TestImpairmentExtraLoss(t *testing.T) {
	s := signal.New(1e6, 2000)
	for i := range s.Samples {
		s.Samples[i] = 1
	}
	l := wifiLOSLink(5)
	l.NoiseFloor = -200
	clean, err := apply(l, s, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	l.Impairment = &Impairment{ExtraLossDB: 13}
	faded, err := apply(l, s, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if d := signal.PowerDB(clean.MeanPower()) - signal.PowerDB(faded.MeanPower()); math.Abs(d-13) > 0.1 {
		t.Fatalf("extra loss delivered %g dB, want 13", d)
	}
}

func TestImpairmentTruncationZeroesTail(t *testing.T) {
	s := signal.New(1e6, 1000)
	for i := range s.Samples {
		s.Samples[i] = 1
	}
	l := wifiLOSLink(5)
	l.NoiseFloor = -300 // isolate the reflected signal
	l.Impairment = &Impairment{Truncate: 0.5}
	out, err := apply(l, s, 100, false)
	if err != nil {
		t.Fatal(err)
	}
	head := &signal.Signal{Rate: out.Rate, Samples: out.Samples[100:600]}
	tail := &signal.Signal{Rate: out.Rate, Samples: out.Samples[600:1100]}
	if head.MeanPower() == 0 {
		t.Fatal("head of truncated packet lost its signal")
	}
	// Only AWGN at -300 dBm survives beyond the cut.
	if tail.MeanPower() > head.MeanPower()*1e-12 {
		t.Fatalf("tail survived the brownout cut: head %g, tail %g",
			head.MeanPower(), tail.MeanPower())
	}
}

func TestImpairmentImpulsesAndCFO(t *testing.T) {
	s := signal.New(1e6, 20000)
	for i := range s.Samples {
		s.Samples[i] = 1
	}
	l := wifiLOSLink(5)
	clean, err := apply(l, s, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	l.Impairment = &Impairment{ImpulseProb: 0.01, ImpulsePowerDBm: -40}
	noisy, err := apply(l, s, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	// ~200 impulses at -40 dBm dominate a ~-75 dBm capture.
	if noisy.MeanPower() < 2*clean.MeanPower() {
		t.Fatalf("impulse storm added no energy: %g vs %g", noisy.MeanPower(), clean.MeanPower())
	}

	// CFO drift rotates the capture exactly like static CFO of the sum.
	a := wifiLOSLink(5)
	a.CFOHz = 1000
	a.Impairment = &Impairment{CFOHz: 500}
	b := wifiLOSLink(5)
	b.CFOHz = 1500
	ca, _ := apply(a, s, 0, false)
	cb, _ := apply(b, s, 0, false)
	for i := range ca.Samples {
		if ca.Samples[i] != cb.Samples[i] {
			t.Fatal("drift CFO not additive with static CFO")
		}
	}
}

func TestNilImpairmentBitIdentical(t *testing.T) {
	s := signal.New(1e6, 5000)
	for i := range s.Samples {
		s.Samples[i] = complex(float64(i%5), 1)
	}
	l := wifiLOSLink(8)
	l.FadingK = 4
	l.Multipath = []Tap{{Delay: 300e-9, GainDB: -6}}
	base, err := apply(l, s, 50, false)
	if err != nil {
		t.Fatal(err)
	}
	l.Impairment = nil // explicit: the benign path must not change at all
	again, err := apply(l, s, 50, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := range base.Samples {
		if base.Samples[i] != again.Samples[i] {
			t.Fatal("benign path changed")
		}
	}
}

func TestMultipathDeterministic(t *testing.T) {
	s := signal.New(20e6, 500)
	for i := range s.Samples {
		s.Samples[i] = complex(float64(i%7), 1)
	}
	l := wifiLOSLink(5)
	l.Multipath = []Tap{{Delay: 200e-9, GainDB: -3}, {Delay: 600e-9, GainDB: -9}}
	a, err := apply(l, s, 50, false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := apply(l, s, 50, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			t.Fatal("multipath not deterministic under a fixed seed")
		}
	}
}

// applyRef is ApplyToWithPower as it stood when every draw came from a
// *rand.Rand, kept as the reference the signal.Noise stream must
// reproduce byte for byte: fade gain, tap phases, AWGN and impulses in
// that order from one rand.New(rand.NewSource(l.Seed)).
func applyRef(l Link, s *signal.Signal, headroom int, excludeTagLoss bool) *signal.Signal {
	rssi := l.BackscatterRSSI()
	if excludeTagLoss {
		rssi += l.TagLossDB
	}
	if l.Impairment != nil {
		rssi -= l.Impairment.ExtraLossDB
	}
	amp := signal.AmplitudeForPowerDBm(rssi)
	p := s.MeanPower()
	out := signal.New(s.Rate, len(s.Samples)+2*headroom)
	rng := rand.New(rand.NewSource(l.Seed))
	g := complex(amp/math.Sqrt(p), 0) * fadeGainRef(l, rng)
	for i, v := range s.Samples {
		out.Samples[headroom+i] = v * g
	}
	for _, tap := range l.Multipath {
		d := int(math.Round(tap.Delay * s.Rate))
		tapGain := complex(signal.AmplitudeForPowerDBm(tap.GainDB), 0) *
			cmplx.Exp(complex(0, 2*math.Pi*rng.Float64()))
		for i, v := range s.Samples {
			j := headroom + i + d
			if j >= len(out.Samples) {
				break
			}
			out.Samples[j] += v * g * tapGain
		}
	}
	if t := l.truncateFraction(); t > 0 {
		cut := headroom + int(t*float64(len(s.Samples)))
		for j := cut; j < len(out.Samples); j++ {
			out.Samples[j] = 0
		}
	}
	cfo := l.CFOHz
	if l.Impairment != nil {
		cfo += l.Impairment.CFOHz
	}
	if cfo != 0 {
		out.FrequencyShift(cfo)
	}
	sigma := math.Sqrt(signal.DBToPower(l.NoiseFloor) / 2)
	for i := range out.Samples {
		out.Samples[i] += complex(rng.NormFloat64()*sigma, rng.NormFloat64()*sigma)
	}
	if imp := l.Impairment; imp != nil && imp.ImpulseProb > 0 {
		sigma := math.Sqrt(signal.DBToPower(imp.ImpulsePowerDBm) / 2)
		for j := range out.Samples {
			if rng.Float64() < imp.ImpulseProb {
				out.Samples[j] += complex(rng.NormFloat64()*sigma, rng.NormFloat64()*sigma)
			}
		}
	}
	return out
}

// fadeGainRef is Link.fadeGain drawing from a *rand.Rand.
func fadeGainRef(l Link, rng *rand.Rand) complex128 {
	if l.FadingK <= 0 {
		return 1
	}
	k := l.FadingK
	los := math.Sqrt(k / (k + 1))
	sigma := math.Sqrt(1 / (k + 1) / 2)
	return complex(los+rng.NormFloat64()*sigma, rng.NormFloat64()*sigma)
}

// TestApplyMatchesRandReference runs faded and unfaded links with multipath,
// brownout truncation, static and drifting CFO and impulsive noise
// through ApplyToWithPower (into a dirty, reused buffer) in both dispatch modes
// and requires applyRef's capture bit for bit, so the stream reaches the
// impulse loop exactly where the old generator did.
func TestApplyMatchesRandReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	in := signal.New(20e6, 3000)
	for i := range in.Samples {
		in.Samples[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	prev := simd.Enabled()
	defer simd.SetEnabled(prev)
	dst := signal.New(0, 0)
	for _, k := range []float64{0, 4} {
		for _, imp := range []*Impairment{
			nil,
			{Truncate: 0.6},
			{CFOHz: 700, ImpulseProb: 0.02, ImpulsePowerDBm: -50},
			{ExtraLossDB: 3, Truncate: 0.3, ImpulseProb: 0.5, ImpulsePowerDBm: -60},
		} {
			for _, taps := range [][]Tap{nil, {{Delay: 200e-9, GainDB: -3}, {Delay: 650e-9, GainDB: -9}}} {
				l := wifiLOSLink(7)
				l.FadingK, l.Impairment, l.Multipath = k, imp, taps
				l.CFOHz = 1200
				l.Seed = int64(k)*10 + int64(len(taps))
				want := applyRef(l, in, 400, false)
				for _, on := range []bool{false, true} {
					simd.SetEnabled(on)
					for i := range dst.Samples {
						dst.Samples[i] = complex(math.NaN(), 1)
					}
					if err := l.ApplyToWithPower(dst, in, 400, false, 0); err != nil {
						t.Fatal(err)
					}
					if len(dst.Samples) != len(want.Samples) {
						t.Fatalf("length %d, want %d", len(dst.Samples), len(want.Samples))
					}
					for i := range want.Samples {
						a, b := dst.Samples[i], want.Samples[i]
						if math.Float64bits(real(a)) != math.Float64bits(real(b)) ||
							math.Float64bits(imag(a)) != math.Float64bits(imag(b)) {
							t.Fatalf("K=%g imp=%+v taps=%d simd=%s: sample %d = %v, want %v",
								k, imp, len(taps), simd.Mode(), i, a, b)
						}
					}
				}
			}
		}
	}
}

// TestApplySNRMatchesRandReference pins ApplySNR's noise to the
// rand.New(rand.NewSource(seed)) loop it replaced.
func TestApplySNRMatchesRandReference(t *testing.T) {
	in := signal.New(1e6, 2500)
	for i := range in.Samples {
		in.Samples[i] = complex(float64(i%9)-4, 1)
	}
	got, err := ApplySNR(in, 7, 33, 123)
	if err != nil {
		t.Fatal(err)
	}
	want := signal.New(in.Rate, len(in.Samples)+66)
	g := complex(math.Sqrt(signal.DBToPower(7)/in.MeanPower()), 0)
	for i, v := range in.Samples {
		want.Samples[33+i] = v * g
	}
	rng := rand.New(rand.NewSource(123))
	sigma := math.Sqrt(0.5)
	for i := range want.Samples {
		want.Samples[i] += complex(rng.NormFloat64()*sigma, rng.NormFloat64()*sigma)
	}
	for i := range want.Samples {
		if got.Samples[i] != want.Samples[i] {
			t.Fatalf("sample %d = %v, want %v", i, got.Samples[i], want.Samples[i])
		}
	}
}

// TestCaptureFillsInParts builds captures by Fill calls split at random
// multiples of signal.RotorBlock and requires ApplyToWithPower's
// one-shot capture bit for bit, in both dispatch modes: a plain link,
// multipath, brownout truncation, static and fault CFO and impulse
// noise, each with and without fading. Every fill writes the samples
// up to its rounded end and leaves those past it as they were (NaN
// here), and a link with impulse noise fills whole on its first call.
func TestCaptureFillsInParts(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	in := signal.New(20e6, 9000)
	for i := range in.Samples {
		in.Samples[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	prev := simd.Enabled()
	defer simd.SetEnabled(prev)
	echoes := []Tap{{Delay: 200e-9, GainDB: -3}, {Delay: 650e-9, GainDB: -9}}
	cases := []struct {
		name string
		cfo  float64
		taps []Tap
		imp  *Impairment
	}{
		{"plain", 0, nil, nil},
		{"multipath", 0, echoes, nil},
		{"truncate", 0, nil, &Impairment{Truncate: 0.45}},
		{"static-cfo", -15e3, nil, nil},
		{"fault-cfo", 1200, echoes, &Impairment{CFOHz: 700, ExtraLossDB: 2, Truncate: 0.8}},
		{"impulse", 900, nil, &Impairment{ImpulseProb: 0.02, ImpulsePowerDBm: -50}},
	}
	dst := signal.New(0, 0)
	for _, k := range []float64{0, 4} {
		for ci, c := range cases {
			l := wifiLOSLink(7)
			l.FadingK, l.Impairment, l.Multipath, l.CFOHz = k, c.imp, c.taps, c.cfo
			l.Seed = int64(100*ci) + int64(k)
			for _, on := range []bool{false, true} {
				simd.SetEnabled(on)
				label := fmt.Sprintf("%s K=%g simd=%s", c.name, k, simd.Mode())
				want := signal.New(0, 0)
				if err := l.ApplyToWithPower(want, in, 400, false, 0); err != nil {
					t.Fatal(err)
				}
				for trial := 0; trial < 4; trial++ {
					capt, err := l.Begin(dst, in, 400, false, 0)
					if err != nil {
						t.Fatal(err)
					}
					for i := range dst.Samples {
						dst.Samples[i] = complex(math.NaN(), 1)
					}
					n := len(dst.Samples)
					for done := 0; done < n; {
						ask := done + 1 + rng.Intn(3*signal.RotorBlock)
						capt.Fill(ask)
						want := min(n, (ask+signal.RotorBlock-1)/signal.RotorBlock*signal.RotorBlock)
						if c.imp != nil && c.imp.ImpulseProb > 0 {
							want = n
						}
						for i, v := range dst.Samples[done:want] {
							if cmplx.IsNaN(v) {
								t.Fatalf("%s: Fill(%d) left sample %d of %d unwritten", label, ask, done+i, want)
							}
						}
						if want < n && !cmplx.IsNaN(dst.Samples[want]) {
							t.Fatalf("%s: Fill(%d) wrote sample %d past its end", label, ask, want)
						}
						done = want
					}
					capt.Release()
					requireSameBits(t, label, dst.Samples, want.Samples)
				}
			}
		}
	}
}

// requireSameBits fails unless got and want hold the same float64 bits.
func requireSameBits(t *testing.T, label string, got, want []complex128) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", label, len(got), len(want))
	}
	for i, a := range got {
		b := want[i]
		if math.Float64bits(real(a)) != math.Float64bits(real(b)) ||
			math.Float64bits(imag(a)) != math.Float64bits(imag(b)) {
			t.Fatalf("%s: sample %d = %v, want %v", label, i, a, b)
		}
	}
}
