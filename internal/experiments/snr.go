package experiments

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"

	"repro/internal/core"
	"repro/internal/fec"
	"repro/internal/runner"
	"repro/internal/waveform"
)

// SNRPoint is one sample of the backscatter decoder's operating curve:
// mean link SNR at the receiver against tag BER, packet loss and goodput.
type SNRPoint struct {
	SNRdB          float64
	BER            float64
	LossRate       float64
	ThroughputKbps float64
}

// String renders the point as a bench-log row.
func (p SNRPoint) String() string {
	return fmt.Sprintf("snr=%4.1fdB BER=%7.1e loss=%4.2f thr=%6.1fkbps",
		p.SNRdB, p.BER, p.LossRate, p.ThroughputKbps)
}

// snrGridDB is the swept mean-SNR grid. It brackets the WiFi receiver's
// detection wall (~4 dB) and runs into the error-free plateau.
var snrGridDB = []float64{0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22}

// BERvsSNR sweeps the WiFi backscatter decoder's BER/loss operating curve
// against mean link SNR at fixed geometry (8 m LOS): the noise floor is
// set per point so the backscatter RSSI lands the target SNR. Every point
// reuses one ContentSeed and one waveform cache — the excitation packets
// are synthesised once and replayed through each point's own noise stream,
// which makes the sweep receiver-bound rather than synthesis-bound.
func BERvsSNR(opt Options) ([]SNRPoint, error) {
	return berVsSNR(opt, waveform.New(0), nil)
}

// berVsSNR is BERvsSNR with an injectable waveform cache and an optional
// RS code: tests pass their own cache to assert hit rates, benchmarks pass
// nil to measure the memoization win, and a nil cache also drops the
// shared ContentSeed so the sweep runs exactly as a pre-memoization build
// would. With coding set, each point's BER is the post-correction payload
// BER (CodedBER) instead of the raw stream BER.
func berVsSNR(opt Options, waves *waveform.Cache, coding *fec.Config) ([]SNRPoint, error) {
	return berVsSNROn(snrGridDB, opt, waves, coding, core.DualReceiver)
}

// berVsSNROn is berVsSNR over an explicit SNR grid. The coded sweep passes
// a denser grid: the decoder's bit-error band is narrow (surviving packets
// at 2 dB grid points measure error-free on either side of it), so the
// coarse grid steps straight over the region where a code earns its keep.
func berVsSNROn(grid []float64, opt Options, waves *waveform.Cache, coding *fec.Config, mode core.ReceiverMode) ([]SNRPoint, error) {
	var contentSeed int64
	if waves != nil {
		contentSeed = runner.DeriveSeed(opt.Seed, "snr.content")
	}
	return sweep(opt, "snr", len(grid), func(i int, sp *span) (SNRPoint, error) {
		cfg := core.DefaultConfig(core.WiFi, 8)
		cfg.Seed = runner.DeriveSeed(opt.Seed, "snr", i)
		cfg.ContentSeed = contentSeed
		cfg.Waveforms = waves
		cfg.Coding = coding
		cfg.ReceiverMode = mode
		cfg.Link.NoiseFloor = cfg.Link.BackscatterRSSI() - grid[i]
		res, err := runSession(cfg, opt, sp)
		if err != nil {
			return SNRPoint{}, err
		}
		ber := res.BER()
		if coding != nil {
			ber = res.CodedBER()
		}
		return SNRPoint{
			SNRdB:          grid[i],
			BER:            ber,
			LossRate:       res.LossRate(),
			ThroughputKbps: res.ThroughputBps() / 1e3,
		}, nil
	})
}

// CodedSNRResult pairs an uncoded and an RS-coded BER-vs-SNR sweep over
// the identical channel realisations (same seeds — the coded path only
// rewrites transmitted bit content, never the draw order) and summarises
// the link-margin gain at the target BER.
type CodedSNRResult struct {
	Coding  fec.Config
	Uncoded []SNRPoint // raw tag-stream BER
	Coded   []SNRPoint // post-correction payload BER

	// TargetBER is the operating threshold the margins are read at;
	// UncodedSNRdB/CodedSNRdB are where each curve last crosses down
	// through it (log-BER interpolated between grid points, +Inf if the
	// curve never holds the target). GainDB is their difference: how many
	// dB of link margin the code buys at that operating point.
	TargetBER    float64
	UncodedSNRdB Crossing
	CodedSNRdB   Crossing
	GainDB       Crossing

	// Retx is the full coded uplink — RS with a retransmission budget of
	// RetxDepth, each copy RS-decoded alone as freerider.Send does, but
	// keeping the first RS-valid decode (no payload check, no scheme
	// fallback) — populated only by CodedBERvsSNR with depth >= 2.
	// RetxGainDB is the link margin that uplink holds over the uncoded
	// single-shot link at the target BER.
	RetxDepth  int
	Retx       []SNRPoint
	RetxSNRdB  Crossing
	RetxGainDB Crossing
}

// String renders the paired sweeps and their margins as the bench log's
// block.
func (r CodedSNRResult) String() string {
	c := r.Coding
	lines := curveLines(nil, "uncoded:", r.Uncoded)
	lines = curveLines(lines, fmt.Sprintf("coded RS(%d,%d) x%d:", c.N, c.K, c.Interleave), r.Coded)
	lines = append(lines, fmt.Sprintf("BER<=%.0e: uncoded needs %.2f dB, coded needs %.2f dB — gain %.2f dB",
		r.TargetBER, r.UncodedSNRdB, r.CodedSNRdB, r.GainDB))
	if r.RetxDepth >= 2 {
		lines = curveLines(lines, fmt.Sprintf("retransmitted RS(%d,%d) x%d, budget %d:",
			c.N, c.K, c.Interleave, r.RetxDepth), r.Retx)
		lines = append(lines, fmt.Sprintf("BER<=%.0e: retransmitted needs %.2f dB — %.2f dB link margin over uncoded",
			r.TargetBER, r.RetxSNRdB, r.RetxGainDB))
	}
	return strings.Join(lines, "\n")
}

// curveLines appends a heading and one indented row per point.
func curveLines(lines []string, heading string, curve []SNRPoint) []string {
	lines = append(lines, heading)
	for _, p := range curve {
		lines = append(lines, "  "+p.String())
	}
	return lines
}

// codedTargetBER is the operating threshold the coded sweep reports link
// margin at.
const codedTargetBER = 1e-3

// berFloor keeps log-domain interpolation finite when a grid point
// measures zero errors.
const berFloor = 1e-6

// codedSnrGridDB is the paired sweep's denser grid: half-dB steps through
// the decoder's transition band (the detection wall and the narrow
// bit-error region above it, ~5-9 dB at the 8 m geometry), coarse steps on
// the plateaus. The standard 2 dB grid steps clean over the error band —
// surviving packets measure error-free on both sides of it — which would
// make coded and uncoded curves indistinguishable.
// Half-dB coverage extends to 14 dB so the band stays resolved when a
// fault profile's bad-state attenuation shifts it upward.
var codedSnrGridDB = []float64{
	0, 2, 4, 5, 5.5, 6, 6.5, 7, 7.5, 8, 8.5, 9, 9.5, 10, 10.5, 11,
	11.5, 12, 12.5, 13, 13.5, 14, 16, 18, 20, 22,
}

// CodedBERvsSNR runs the BER-vs-SNR sweep twice — uncoded and with the
// given RS code (nil selects fec.DefaultConfig) — over the dense
// transition-band grid, and reports the SNR each curve needs to hold
// BER <= 1e-3, plus the dB gain between them. Depth >= 2 adds a third
// arm: the full coded uplink at a retransmission budget of depth.
// Per-packet RS alone cannot move the 1e-3 crossing on this decoder —
// residual failures are misalignment events that corrupt about half the
// packet, far beyond any code's correction radius (see DESIGN §9) — so
// the headline link margin is read off the retransmission arm.
func CodedBERvsSNR(opt Options, coding *fec.Config, depth int) (CodedSNRResult, error) {
	cc := fec.DefaultConfig()
	if coding != nil {
		cc = *coding
	}
	if err := cc.Validate(); err != nil {
		return CodedSNRResult{}, err
	}
	uncoded, err := berVsSNROn(codedSnrGridDB, opt, waveform.New(0), nil, core.DualReceiver)
	if err != nil {
		return CodedSNRResult{}, err
	}
	coded, err := berVsSNROn(codedSnrGridDB, opt, waveform.New(0), &cc, core.DualReceiver)
	if err != nil {
		return CodedSNRResult{}, err
	}
	res := CodedSNRResult{
		Coding:       cc,
		Uncoded:      uncoded,
		Coded:        coded,
		TargetBER:    codedTargetBER,
		UncodedSNRdB: Crossing(SNRAtBER(uncoded, codedTargetBER)),
		CodedSNRdB:   Crossing(SNRAtBER(coded, codedTargetBER)),
	}
	res.GainDB = res.UncodedSNRdB - res.CodedSNRdB
	if res.UncodedSNRdB.never() && res.CodedSNRdB.never() {
		res.GainDB = 0 // neither curve reaches the target: no margin to compare
	}
	if depth >= 2 {
		retx, err := retxBERvsSNROn(codedSnrGridDB, opt, cc, depth)
		if err != nil {
			return CodedSNRResult{}, err
		}
		res.RetxDepth = depth
		res.Retx = retx
		res.RetxSNRdB = Crossing(SNRAtBER(retx, codedTargetBER))
		res.RetxGainDB = res.UncodedSNRdB - res.RetxSNRdB
		if res.UncodedSNRdB.never() && res.RetxSNRdB.never() {
			res.RetxGainDB = 0
		}
	}
	return res, nil
}

// retxBERvsSNROn sweeps the retransmitted coded uplink: each payload is
// RS-encoded once and transmitted up to depth times through the session's
// sequential stream. Every received copy is RS-decoded alone, as
// freerider.Send does; the sweep keeps the first copy that RS-decodes and,
// when none does, the hard pass-through of the last copy received. A
// copy that never reached the decoder contributes nothing; a payload with
// no received copy in the whole budget counts as lost, not errored,
// matching Session.Run's accounting. The seed labels ("snr.chase") predate
// the arm's name; renaming them would change its draws.
func retxBERvsSNROn(grid []float64, opt Options, cc fec.Config, depth int) ([]SNRPoint, error) {
	return sweep(opt, "snr.retx", len(grid), func(i int, sp *span) (SNRPoint, error) {
		cfg := core.DefaultConfig(core.WiFi, 8)
		cfg.Seed = runner.DeriveSeed(opt.Seed, "snr.chase", i)
		cfg.Faults = opt.Faults
		cfg.Coding = &cc
		cfg.Link.NoiseFloor = cfg.Link.BackscatterRSSI() - grid[i]
		sess, err := core.NewSession(cfg)
		if err != nil {
			return SNRPoint{}, err
		}
		lay, _ := sess.Layout()
		data := rand.New(rand.NewSource(runner.DeriveSeed(opt.Seed, "snr.chase.data", i)))
		payload := make([]byte, lay.DataBits())
		var bitErrs, dataBits, lost, packets int
		var airTime float64
		var samples int64
		for p := 0; p < opt.packets(); p++ {
			for j := range payload {
				payload[j] = byte(data.Intn(2))
			}
			coded, err := lay.EncodeBits(payload)
			if err != nil {
				return SNRPoint{}, err
			}
			var final []byte
			for t := 0; t < depth; t++ {
				pr, err := sess.RunPacket(coded)
				if err != nil {
					return SNRPoint{}, err
				}
				packets++
				airTime += pr.AirTime
				samples += int64(pr.Samples)
				data, _, ok := lay.DecodeBits(pr.DecodedTag)
				if data == nil {
					continue // copy never reached the decoder: retransmit
				}
				final = data
				if ok {
					break
				}
			}
			if final == nil {
				lost++
				continue
			}
			dataBits += len(payload)
			for j := range payload {
				if final[j] != payload[j] {
					bitErrs++
				}
			}
		}
		sp.packets.Add(int64(packets))
		sp.samples.Add(samples)
		ber := 1.0
		if dataBits > 0 {
			ber = float64(bitErrs) / float64(dataBits)
		}
		var thr float64
		if airTime > 0 {
			thr = float64(dataBits-bitErrs) / airTime / 1e3
		}
		return SNRPoint{
			SNRdB:          grid[i],
			BER:            ber,
			LossRate:       float64(lost) / float64(opt.packets()),
			ThroughputKbps: thr,
		}, nil
	})
}

// SingleReceiverSNRResult pairs dual- and single-receiver BER-vs-SNR
// sweeps over the identical excitation content (one shared waveform
// cache — the tag's transmit side is mode-independent, so both arms
// replay the same synthesised packets) and summarises the sensitivity
// the Double-decker deployment gives up for dropping the reference
// receiver.
type SingleReceiverSNRResult struct {
	Dual   []SNRPoint // dual-receiver reference-compare decode
	Single []SNRPoint // single-receiver differential decode

	// TargetBER is the operating threshold the sensitivity delta is read
	// at; DualSNRdB/SingleSNRdB are where each curve last crosses down
	// through it (log-BER interpolated, +Inf if never held). DeltaDB is
	// SingleSNRdB - DualSNRdB: the extra link margin the single-receiver
	// decode needs — the cost of the ~Redundancy-element pilot feature
	// window (vs Redundancy·NDBPS codeword elements) compounded by
	// transition-error propagation through the cumulative XOR.
	TargetBER   float64
	DualSNRdB   Crossing
	SingleSNRdB Crossing
	DeltaDB     Crossing
}

// String renders both curves and the sensitivity cost as the bench log's
// block.
func (r SingleReceiverSNRResult) String() string {
	lines := curveLines(nil, "dual-receiver:", r.Dual)
	lines = curveLines(lines, "single-receiver (Double-decker):", r.Single)
	lines = append(lines, fmt.Sprintf("BER<=%.0e: dual needs %.2f dB, single needs %.2f dB — sensitivity cost %.2f dB",
		r.TargetBER, r.DualSNRdB, r.SingleSNRdB, r.DeltaDB))
	return strings.Join(lines, "\n")
}

// singleTargetBER is the operating threshold the single-receiver sweep
// reports its sensitivity delta at. It is looser than the coded sweep's
// 1e-3: the differential decode's transition errors double under the
// cumulative XOR, so its floor sits higher than the dual decoder's.
const singleTargetBER = 1e-2

// SingleReceiverBERvsSNR sweeps the WiFi decoder's operating curve in
// both receiver modes over the dense transition-band grid and reports the
// dB of extra SNR the single-receiver (Double-decker) decode needs to
// hold the target BER. Both arms share one waveform cache and one
// ContentSeed: receiver mode never enters waveform keys, so the second
// arm replays the first arm's excitations and the comparison isolates
// the receive side.
func SingleReceiverBERvsSNR(opt Options) (SingleReceiverSNRResult, error) {
	waves := waveform.New(0)
	dual, err := berVsSNROn(codedSnrGridDB, opt, waves, nil, core.DualReceiver)
	if err != nil {
		return SingleReceiverSNRResult{}, err
	}
	single, err := berVsSNROn(codedSnrGridDB, opt, waves, nil, core.SingleReceiver)
	if err != nil {
		return SingleReceiverSNRResult{}, err
	}
	res := SingleReceiverSNRResult{
		Dual:        dual,
		Single:      single,
		TargetBER:   singleTargetBER,
		DualSNRdB:   Crossing(SNRAtBER(dual, singleTargetBER)),
		SingleSNRdB: Crossing(SNRAtBER(single, singleTargetBER)),
	}
	res.DeltaDB = res.SingleSNRdB - res.DualSNRdB
	if res.DualSNRdB.never() && res.SingleSNRdB.never() {
		res.DeltaDB = 0 // neither mode reaches the target: no delta to report
	}
	return res, nil
}

// Crossing is an SNR in dB read off a BER curve by SNRAtBER, or the
// difference of two. A curve that never holds its target crosses at +Inf,
// and a margin against it is infinite too; JSON has no infinities, so a
// non-finite Crossing encodes as null. Text output prints it as it is.
type Crossing float64

// MarshalJSON encodes a finite crossing as the plain number, else null.
func (c Crossing) MarshalJSON() ([]byte, error) {
	if f := float64(c); !math.IsInf(f, 0) && !math.IsNaN(f) {
		return json.Marshal(f)
	}
	return []byte("null"), nil
}

// never reports a curve that never holds its target.
func (c Crossing) never() bool { return math.IsInf(float64(c), 1) }

// SNRAtBER reads the SNR (dB) where the curve last crosses down through
// the target BER and stays under it, interpolating in log-BER between grid
// points. Detection-wall curves are not monotone (an all-lost low-SNR cell
// can measure a lucky BER of 0), so the scan runs from the high-SNR end:
// the reported point is the final crossing, after which the target holds.
// Returns +Inf when even the top of the grid misses the target, and the
// lowest grid SNR when the whole curve is under it.
func SNRAtBER(curve []SNRPoint, target float64) float64 {
	if len(curve) == 0 {
		return math.Inf(1)
	}
	clamp := func(b float64) float64 {
		if b < berFloor {
			return berFloor
		}
		return b
	}
	last := len(curve) - 1
	if curve[last].BER > target {
		return math.Inf(1)
	}
	for i := last; i > 0; i-- {
		lo, hi := curve[i-1], curve[i]
		if lo.BER > target {
			// Crossing sits between lo and hi: interpolate SNR linearly in
			// log(BER) space.
			lb, hb := math.Log(clamp(lo.BER)), math.Log(clamp(hi.BER))
			t := (lb - math.Log(target)) / (lb - hb)
			return lo.SNRdB + t*(hi.SNRdB-lo.SNRdB)
		}
	}
	return curve[0].SNRdB
}
