package dsss

// The 802.11b self-synchronising scrambler (§16.2.4): G(z) = z⁻⁷ + z⁻⁴ + 1.
// Unlike 802.11a/g's frame-synchronous whitener, the DSSS scrambler feeds
// back *transmitted* bits, so a descrambler needs no seed exchange — it
// synchronises itself after 7 received bits (which land inside the
// preamble).

// ScramblerSeed is the initial register state for long-preamble frames.
const ScramblerSeed byte = 0x1B

// Scramble whitens a bit stream for transmission: out[k] = in[k] ⊕
// out[k-4] ⊕ out[k-7], register seeded with the 7-bit seed.
func Scramble(in []byte, seed byte) []byte {
	reg := seed & 0x7F // bit 0 = most recent output
	out := make([]byte, len(in))
	for k, b := range in {
		o := (b ^ (reg >> 3) ^ (reg >> 6)) & 1
		out[k] = o
		reg = (reg << 1) | o
	}
	return out
}
