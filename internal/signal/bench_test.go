package signal

import (
	"math/rand"
	"testing"
)

func benchSignal(n int) *Signal {
	s := New(20e6, n)
	rng := rand.New(rand.NewSource(1))
	for i := range s.Samples {
		s.Samples[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return s
}

func BenchmarkFFT1024(b *testing.B) {
	s := benchSignal(1024)
	buf := make([]complex128, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, s.Samples)
		if err := FFT(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFFT64(b *testing.B) {
	s := benchSignal(64)
	buf := make([]complex128, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, s.Samples)
		if err := FFT(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFrequencyShift(b *testing.B) {
	s := benchSignal(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.FrequencyShift(1e6)
	}
}

func BenchmarkConvolve101Taps(b *testing.B) {
	s := benchSignal(4096)
	h, err := LowpassFIR(20e6, 2e6, 101)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Convolve(s.Samples, h)
	}
}

// BenchmarkConvolveCapture129Taps times the direct form of the
// Bluetooth channel filter, the oracle its overlap-save form is tested
// against: the 129-tap ±500 kHz channel-select filter at 8 MHz over a
// 17,696-sample capture (a 255-byte frame plus guard), written into a
// reused output. bluetooth's BenchmarkChannelFilter times the
// receiver's own filter.
func BenchmarkConvolveCapture129Taps(b *testing.B) {
	s := benchSignal(17696)
	h, err := LowpassFIR(8e6, 0.5e6, 129)
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]complex128, len(s.Samples))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ConvolveInto(dst, s.Samples, h)
	}
}

// BenchmarkAddAWGN is one packet's noise at the wifi-fresh capture
// length (1500 B at 6 Mbps plus 400 samples of headroom each side): a
// reseeded stream, as channel.Capture draws it, filling 41,440 samples
// in one call (whole) or the way the packet pipeline fills a WiFi
// capture whose preamble it detects (split): its first RotorBlock
// samples, which hold every sample the WiFi scan reads before its early
// stop on a preamble at the capture's 400-sample headroom, then the
// rest. slow-samples/op is the mean count, over the first eight
// seeds, of the samples holding a draw the ziggurat's fast path rejects
// (~2,200 per capture, fixed by the stream).
func BenchmarkAddAWGN(b *testing.B) {
	const samples = 41440
	slow := slowSamples(samples, 8)
	for _, bc := range []struct {
		name   string
		prefix int
	}{{"whole", samples}, {"split", RotorBlock}} {
		b.Run(bc.name, func(b *testing.B) {
			s := benchSignal(samples)
			head, rest := &Signal{Samples: s.Samples[:bc.prefix]}, &Signal{Samples: s.Samples[bc.prefix:]}
			n := NewNoise(2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n.Seed(int64(i))
				head.AddAWGN(0.1, n)
				rest.AddAWGN(0.1, n)
			}
			b.ReportMetric(slow, "slow-samples/op")
		})
	}
}

// countingSource counts the raw values math/rand draws through it.
type countingSource struct {
	rand.Source64
	draws int
}

func (c *countingSource) Int63() int64 { c.draws++; return c.Source64.Int63() }

// slowSamples is the mean count, over seeds 0 to seeds−1, of the first
// n samples whose two normals take more than two raw values.
func slowSamples(n, seeds int) float64 {
	total := 0
	for seed := range seeds {
		src := &countingSource{Source64: rand.NewSource(int64(seed)).(rand.Source64)}
		rng := rand.New(src)
		for range n {
			before := src.draws
			rng.NormFloat64()
			rng.NormFloat64()
			total += b2i(src.draws-before > 2)
		}
	}
	return float64(total) / float64(seeds)
}

// BenchmarkScalePower is the channel shift's 2/π gain plus power sum
// over one wifi-fresh capture's length (41,440 samples), alternating the
// gain with its reciprocal so the samples stay in range.
func BenchmarkScalePower(b *testing.B) {
	s := benchSignal(41440)
	gains := [2]complex128{complex(SSBShiftGain, 0), complex(1/SSBShiftGain, 0)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ScalePower(gains[i&1])
	}
}

func BenchmarkSquareWaveMix(b *testing.B) {
	s := benchSignal(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SquareWaveMix(5e6, 0)
	}
}

// benchProbeSink keeps the calibration workload observable so the
// compiler cannot delete it.
var benchProbeSink complex128

// BenchmarkCalibrationProbe is a fixed pure-CPU workload (cache-resident
// complex multiply-accumulate, no allocation, no code under test) used by
// tools/benchgate to normalise every other benchmark: machine-wide
// slowdowns on shared CI hardware scale the probe and the DSP kernels
// alike, so gating on the probe-relative ratio cancels them. Its absolute
// ns/op is meaningless and must never be "optimised".
func BenchmarkCalibrationProbe(b *testing.B) {
	buf := make([]complex128, 4096)
	for i := range buf {
		buf[i] = complex(float64(i%17)*0.25, float64(i%29)*0.125)
	}
	w := complex(0.999, 0.0447)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc := complex(0, 0)
		for pass := 0; pass < 8; pass++ {
			for _, v := range buf {
				acc += v * w
				w *= complex(real(v)*1e-6+1, 0)
			}
		}
		benchProbeSink = acc
	}
}

// BenchmarkSeed times seeding math/rand's source, RandSource (the same
// state, by independent products) and restarting a Noise stream.
func BenchmarkSeed(b *testing.B) {
	b.Run("math-rand", func(b *testing.B) {
		src := rand.NewSource(0)
		for i := 0; i < b.N; i++ {
			src.Seed(int64(i))
		}
	})
	b.Run("RandSource", func(b *testing.B) {
		src := newRandSource(0)
		for i := 0; i < b.N; i++ {
			src.Seed(int64(i))
		}
	})
	b.Run("Noise", func(b *testing.B) {
		n := NewNoise(0)
		for i := 0; i < b.N; i++ {
			n.Seed(int64(i))
		}
	})
}
