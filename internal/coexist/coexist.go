// Package coexist reproduces the paper's §4.4 coexistence study with an
// event-level airtime model: a WiFi network doing a saturated file transfer
// on channel 6 and the FreeRider system backscattering near 2.472–2.48 GHz.
// Fig 15 asks whether backscatter hurts WiFi (it does not: the tag's
// re-radiated power, after tag losses, propagation, and adjacent-channel
// rejection, lands far below the WiFi noise floor); Fig 16 asks whether
// WiFi hurts backscatter (slightly for WiFi excitation, whose wideband
// receiver admits more adjacent-channel leakage; barely for the narrowband
// ZigBee and Bluetooth receivers).
//
// Every excitation's backscatter link here uses the WiFi rig's antenna
// and calibration gain, channel.DefaultSystemGainDB, although
// core.DefaultConfig sets ZigBee's 4 dB and Bluetooth's 7 dB lower. Fig
// 16's ZigBee and Bluetooth backscatter signals therefore sit 4 and 7 dB
// above what a session at the same distance would see.
package coexist

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/signal"
)

// wifiRateStep is one entry of the SINR→goodput staircase: the minimum SINR
// at which an 802.11g rate is usable.
type wifiRateStep struct {
	minSINRdB float64
	phyMbps   float64
}

// rateTable is ordered fastest-first. Required SINRs follow typical
// commodity-chip sensitivity spacing.
var rateTable = []wifiRateStep{
	{24, 54}, {21, 48}, {17, 36}, {13, 24}, {10, 18}, {8, 12}, {7, 9}, {5, 6},
}

// macEfficiency is the fraction of PHY rate a saturated 802.11 transfer
// delivers as goodput (DIFS/SIFS/backoff/ACK overhead). 54 Mbps × 0.69 ≈
// the 37.4 Mbps median the paper measures.
const macEfficiency = 0.693

// goodputForSINR maps a link SINR to TCP-level goodput in Mbps.
func goodputForSINR(sinr float64) float64 {
	for _, s := range rateTable {
		if sinr >= s.minSINRdB {
			return s.phyMbps * macEfficiency
		}
	}
	return 0
}

// The §4.4 topology and receiver calibration.
const (
	// windowSeconds is the throughput-sampling window.
	windowSeconds = 0.1
	// wifiTxPowerDBm and wifiLinkDistance describe the file-transfer pair;
	// wifiBusyFraction is the transfer's channel-6 airtime occupancy.
	wifiTxPowerDBm   = 15
	wifiLinkDistance = 3
	wifiBusyFraction = 0.75
	// tagToWiFiRx is the distance from the tag to the WiFi receiver (1 m
	// in §4.4.1), tagToBackscatterRx from the tag to its own receiver and
	// wifiToBackscatterRx from the WiFi transmitter to the backscatter
	// receiver, metres.
	tagToWiFiRx         = 1
	tagToBackscatterRx  = 2
	wifiToBackscatterRx = 3
	// wifiRxACIRdB is the WiFi receiver's adjacent-channel interference
	// rejection of the backscatter channel.
	wifiRxACIRdB = 35
	// backscatterReqSNRdB is the SINR a backscatter packet needs.
	backscatterReqSNRdB = 4
)

// Config selects one run of the §4.4 study.
type Config struct {
	// Windows is the number of throughput-sampling windows.
	Windows int
	Seed    int64
	// Excitation selects the backscatter excitation radio. Its transmit
	// power and its receiver's noise floor are core.DefaultConfig's link
	// budget, the one the packet-level sessions run on.
	Excitation core.Radio
	// BackscatterACIRdB is the backscatter receiver's adjacent-channel
	// interference rejection of the WiFi channel.
	BackscatterACIRdB float64
}

// DefaultConfig returns the §4.4 experimental setup for one excitation.
func DefaultConfig(exc core.Radio) Config {
	cfg := Config{Windows: 200, Seed: 1, Excitation: exc}
	switch exc {
	case core.WiFi:
		// Backscatter on channel 13, 35 MHz from channel 6: TX spectral mask
		// leakage plus receive filtering give ~55 dB, the least rejection of
		// the three because the 20 MHz receiver is wideband.
		cfg.BackscatterACIRdB = 55
	case core.ZigBee:
		// 2.48 GHz, 43 MHz away, 2 MHz receiver: strong rejection.
		cfg.BackscatterACIRdB = 65
	case core.Bluetooth:
		cfg.BackscatterACIRdB = 68
	}
	return cfg
}

// backscatterPlateauKbps returns the single-link plateau rate and packet
// airtime for each excitation (calibrated by the core sessions).
func backscatterPlateau(exc core.Radio) (kbps, packetSeconds float64) {
	switch exc {
	case core.WiFi:
		return 61.8, 2.13e-3
	case core.ZigBee:
		return 14.8, 3.65e-3
	case core.Bluetooth:
		return 58.0, 2.26e-3
	}
	return 0, 0
}

// WiFiThroughput samples per-window WiFi goodput in Mbps with or without
// the backscatter system running (Fig 15).
func WiFiThroughput(cfg Config, backscatterPresent bool) ([]float64, error) {
	if err := validate(cfg); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	dep := channel.LOS

	// Desired WiFi signal at its receiver.
	sig := wifiTxPowerDBm + channel.DefaultSystemGainDB/2 - dep.PathLossDB(wifiLinkDistance)
	floor := core.DefaultConfig(core.WiFi, wifiLinkDistance).Link.NoiseFloor

	// Tag re-radiated power arriving at the WiFi receiver, after
	// excitation path, tag losses, tag→WiFi-RX path, and adjacent-channel
	// rejection at the WiFi receiver.
	var interf float64 = math.Inf(-1)
	if backscatterPresent {
		excAtTag := core.DefaultConfig(cfg.Excitation, tagToWiFiRx).Link.TxPowerDBm + channel.DefaultSystemGainDB/2 - dep.PathLossDB(1)
		interf = excAtTag - channel.DefaultTagLossDB -
			dep.PathLossDB(tagToWiFiRx) - wifiRxACIRdB
	}

	out := make([]float64, cfg.Windows)
	for w := range out {
		fade := ricianFadeDB(rng, 8)
		n := signal.DBToPower(floor) + signal.DBToPower(interf)
		sinr := sig + fade - signal.PowerDB(n)
		out[w] = goodputForSINR(sinr) * (1 + 0.01*rng.NormFloat64())
	}
	return out, nil
}

// BackscatterThroughput samples per-window backscatter goodput in kbps with
// or without the WiFi file transfer running (Fig 16).
func BackscatterThroughput(cfg Config, wifiPresent bool) ([]float64, error) {
	if err := validate(cfg); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	dep := channel.LOS

	plateau, pktTime := backscatterPlateau(cfg.Excitation)
	bitsPerPacket := plateau * 1e3 * pktTime / 0.95 // ~5% idle between packets
	pktsPerWindow := int(windowSeconds / (pktTime / 0.95))

	// Backscatter signal at its own receiver.
	link := core.DefaultConfig(cfg.Excitation, tagToBackscatterRx).Link
	excAtTag := link.TxPowerDBm + channel.DefaultSystemGainDB/2 - dep.PathLossDB(1)
	bsSig := excAtTag - channel.DefaultTagLossDB + channel.DefaultSystemGainDB/2 -
		dep.PathLossDB(tagToBackscatterRx)
	floor := link.NoiseFloor

	// WiFi leakage into the backscatter channel.
	var interf float64 = math.Inf(-1)
	if wifiPresent {
		interf = wifiTxPowerDBm + channel.DefaultSystemGainDB/2 -
			dep.PathLossDB(wifiToBackscatterRx) - cfg.BackscatterACIRdB
	}

	out := make([]float64, cfg.Windows)
	for w := range out {
		delivered := 0.0
		// Indoor mobility gives the backscatter link visible per-window
		// fading (weaker LOS dominance than the fixed WiFi pair).
		fade := ricianFadeDB(rng, 2.5)
		for p := 0; p < pktsPerWindow; p++ {
			noise := signal.DBToPower(floor)
			if wifiPresent && rng.Float64() < wifiBusyFraction {
				// Packet overlaps a WiFi burst; the leakage fades too.
				noise += signal.DBToPower(interf + ricianFadeDB(rng, 3))
			}
			sinr := bsSig + fade - signal.PowerDB(noise)
			if sinr >= backscatterReqSNRdB {
				delivered += bitsPerPacket
			}
		}
		out[w] = delivered / windowSeconds / 1e3 // kbps
	}
	return out, nil
}

// ricianFadeDB draws a fading deviation in dB with Rician K (linear).
func ricianFadeDB(rng *rand.Rand, k float64) float64 {
	los := math.Sqrt(k / (k + 1))
	sigma := math.Sqrt(1 / (k + 1) / 2)
	re := los + rng.NormFloat64()*sigma
	im := rng.NormFloat64() * sigma
	p := re*re + im*im
	if p < 1e-12 {
		p = 1e-12
	}
	return signal.PowerDB(p)
}

func validate(cfg Config) error {
	if cfg.Windows <= 0 {
		return fmt.Errorf("coexist: window count %d must be positive", cfg.Windows)
	}
	switch cfg.Excitation {
	case core.WiFi, core.ZigBee, core.Bluetooth:
	default:
		return fmt.Errorf("coexist: unknown excitation %v", cfg.Excitation)
	}
	return nil
}
