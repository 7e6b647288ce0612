package wifi

// computePerm returns the 802.11a/g per-symbol block interleaver
// permutation (§17.3.5.7) for n coded bits at nbpsc bits per subcarrier:
// perm[k] is the output position of input bit k. The two permutations
// ensure adjacent coded bits land on non-adjacent subcarriers and
// alternate between constellation bit significances. Interleaving never
// crosses a symbol boundary — the property FreeRider relies on when it
// spreads one tag bit over whole OFDM symbols.
//
// No stream is interleaved or deinterleaved as a pass of its own: the
// transmitter's fused mappers read their bits through the inverse table
// (mapper.src), and the receiver's slot tables are built from that same
// table.
func computePerm(n, nbpsc int) []int32 {
	s := nbpsc / 2
	if s < 1 {
		s = 1
	}
	perm := make([]int32, n)
	for k := 0; k < n; k++ {
		i := (n/16)*(k%16) + k/16
		j := s*(i/s) + (i+n-16*i/n)%s
		perm[k] = int32(j)
	}
	return perm
}

// rxSlots[mod][coding] maps bit j of one demapped symbol (NCBPS bits in
// constellation order) to its slot in that symbol's rate-1/2 coded stream
// of 2·NDBPS bits (pairs A,B per information bit), undoing the
// interleaver through the transmitter's mapper.src table and the
// puncturing through puncturePattern. The slots no bit maps to are the
// punctured ones. Every NCBPS is a whole number of puncturing periods, so
// the table repeats exactly from symbol to symbol.
var rxSlots = buildRxSlots()

func buildRxSlots() (t [QAM64 + 1][Rate3_4 + 1][]uint16) {
	for mod := range t {
		src := mappers[mod].src
		for cr := range t[mod] {
			pattern := puncturePattern(CodingRate(cr))
			// kept[p] is the rate-1/2 slot of punctured bit p.
			kept := make([]uint16, 0, len(src))
			for i := 0; len(kept) < len(src); i++ {
				for ab, keep := range pattern[i%len(pattern)] {
					if keep {
						kept = append(kept, uint16(2*i+ab))
					}
				}
			}
			slots := make([]uint16, len(src))
			for j, p := range src {
				slots[j] = kept[p]
			}
			t[mod][cr] = slots
		}
	}
	return t
}
