package wifi

import "repro/internal/signal"

// appendSilence surrounds a packet with zero samples.
func appendSilence(s *signal.Signal, before, after int) *signal.Signal {
	out := signal.New(s.Rate, before+len(s.Samples)+after)
	copy(out.Samples[before:], s.Samples)
	return out
}

// newNoise returns a pure-AWGN capture for negative tests.
func newNoise(n int, power float64, seed int64) *signal.Signal {
	s := signal.New(SampleRate, n)
	s.AddAWGN(power, signal.NewNoise(seed))
	return s
}
