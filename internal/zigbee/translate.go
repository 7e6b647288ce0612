package zigbee

import "fmt"

// translatedSymbols[s] is the data symbol a correlation receiver decodes
// when every chip of symbol s's spreading sequence is inverted — the 180°
// phase rotation a FreeRider tag applies (§2.3.2). Inversion is not an
// automorphism of the 16 quasi-orthogonal sequences, so the receiver maps
// the inverted sequence to a deterministic *wrong* symbol with reduced
// correlation margin; this table is that confusion mapping.
var translatedSymbols = buildTranslated()

func buildTranslated() [16]byte {
	var out [16]byte
	for s, seq := range chipWords {
		out[s], _, _ = bestSymbol(^seq)
	}
	return out
}

// TranslatedSymbol returns the symbol an unmodified 802.15.4 receiver
// decodes in place of s when the backscattered chips arrive inverted (the
// tag's 180° rotation). It is the ZigBee element-level translation the
// stream codec uses where WiFi and Bluetooth use a plain bit flip.
func TranslatedSymbol(s byte) (byte, error) {
	if s > 15 {
		return 0, fmt.Errorf("zigbee: symbol %d out of range", s)
	}
	return translatedSymbols[s], nil
}
