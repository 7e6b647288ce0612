// Package freerider is a faithful, simulation-backed reproduction of
// "FreeRider: Backscatter Communication Using Commodity Radios"
// (Zhang, Josephson, Bharadia, Katti — CoNEXT 2017).
//
// FreeRider lets an ultra-low-power tag piggyback its own data onto
// *productive* commodity traffic — 802.11g/n WiFi, ZigBee, or Bluetooth —
// by codeword translation: the tag transforms each over-the-air codeword
// into another valid codeword of the same codebook (a phase rotation for
// OFDM and OQPSK, a frequency hop for FSK), so an unmodified commodity
// receiver on an adjacent channel decodes the backscattered packet and the
// tag data falls out of the XOR of the two bit streams.
//
// The public API wraps three layers:
//
//   - Session: one end-to-end backscatter link (excitation transmitter →
//     tag → channel → adjacent-channel receiver → differential decoder),
//     simulated at complex-baseband sample level.
//   - Network: the multi-tag system of §2.4 — Framed Slotted Aloha rounds
//     coordinated over the packet-length-modulation downlink.
//   - The experiment harness regenerating every figure of the paper's
//     evaluation lives in internal/experiments and is exposed through
//     cmd/freerider-bench.
//
// Everything is deterministic under an explicit seed. See DESIGN.md for
// the system inventory and EXPERIMENTS.md for paper-vs-measured results.
package freerider

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/bits"
	"repro/internal/core"
	"repro/internal/decoder"
	"repro/internal/faults"
	"repro/internal/fec"
	"repro/internal/mac"
	"repro/internal/plm"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/tag"
	"repro/internal/zigbee"
)

// Radio identifies the excitation technology a tag rides on.
type Radio = core.Radio

// Supported excitation radios.
const (
	WiFi      = core.WiFi
	ZigBee    = core.ZigBee
	Bluetooth = core.Bluetooth
)

// ErrUnknownRadio reports a radio name or value other than WiFi, ZigBee
// and Bluetooth. ParseRadio and the stream API wrap it.
var ErrUnknownRadio = errors.New("freerider: unknown radio")

// ParseRadio maps a case-insensitive wire name ("wifi", "zigbee",
// "bluetooth") to its Radio. It is the inverse of RadioKey.
func ParseRadio(name string) (Radio, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "wifi":
		return WiFi, nil
	case "zigbee":
		return ZigBee, nil
	case "bluetooth":
		return Bluetooth, nil
	}
	return 0, fmt.Errorf("%w %q (want wifi, zigbee, bluetooth)", ErrUnknownRadio, name)
}

// checkRadio rejects Radio values outside the three supported radios.
func checkRadio(r Radio) error {
	switch r {
	case WiFi, ZigBee, Bluetooth:
		return nil
	}
	return fmt.Errorf("%w %d", ErrUnknownRadio, int(r))
}

// RadioKey returns the stable wire name of a radio ("wifi", "zigbee",
// "bluetooth") — the short key CLIs and the HTTP service use, as opposed
// to Radio.String's human-readable form.
func RadioKey(r Radio) string {
	switch r {
	case ZigBee:
		return "zigbee"
	case Bluetooth:
		return "bluetooth"
	}
	return "wifi"
}

// ReceiverMode selects dual-receiver (reference-compare) or
// single-receiver (Double-decker differential) decoding; see
// core.ReceiverMode.
type ReceiverMode = core.ReceiverMode

// Receiver modes. DualReceiver (the zero value) is the paper's two-
// receiver deployment; SingleReceiver decodes from the backscattered
// capture alone via the self-referenced differential decision.
const (
	DualReceiver   = core.DualReceiver
	SingleReceiver = core.SingleReceiver
)

// ParseReceiverMode maps a case-insensitive wire name to its
// ReceiverMode. The empty string means DualReceiver, so absent request
// fields and flags keep the historical behaviour.
func ParseReceiverMode(name string) (ReceiverMode, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "", "dual":
		return DualReceiver, nil
	case "single":
		return SingleReceiver, nil
	}
	return 0, fmt.Errorf("freerider: unknown receiver mode %q (want dual, single)", name)
}

// WindowDecision is one decoded tag bit with its decision quality; see
// decoder.WindowResult.
type WindowDecision = decoder.WindowResult

// streamAlphabet returns the exclusive upper bound of a radio's stream
// elements: 2 for the bit streams of WiFi and Bluetooth, 16 for ZigBee's
// 4-bit symbol stream.
func streamAlphabet(r Radio) byte {
	if r == ZigBee {
		return 16
	}
	return 2
}

func validateStream(r Radio, name string, s []byte) error {
	if err := checkRadio(r); err != nil {
		return err
	}
	limit := streamAlphabet(r)
	for i, v := range s {
		if v >= limit {
			return fmt.Errorf("freerider: %s element %d is %d, want < %d for %s", name, i, v, limit, RadioKey(r))
		}
	}
	return nil
}

// translateElement returns the radio's element-level codeword translation:
// what one stream element becomes under the tag's rotation when the
// window's tag bit is 1.
func translateElement(r Radio) func(byte) byte {
	if r == ZigBee {
		return func(s byte) byte {
			t, err := zigbee.TranslatedSymbol(s)
			if err != nil {
				return s // unreachable after validateStream
			}
			return t
		}
	}
	return func(b byte) byte { return b ^ 1 }
}

// EncodeStream applies codeword translation at stream level: given the
// excitation reference stream (descrambled data bits for WiFi, 4-bit data
// symbols for ZigBee, frame bits for Bluetooth) it returns the stream an
// unmodified adjacent-channel receiver decodes when the tag modulates
// tagBits onto it, one tag bit per window of `window` elements, plus how
// many tag bits fit. It is the exact forward model DecodeStream inverts on
// clean streams, and the translation other receiver stacks re-implement
// when they interoperate with FreeRider tags.
func EncodeStream(r Radio, ref, tagBits []byte, window int) ([]byte, int, error) {
	if err := validateStream(r, "ref", ref); err != nil {
		return nil, 0, err
	}
	return decoder.EncodeWindows(ref, tagBits, window, translateElement(r))
}

// DecodeStream recovers tag bits from a pair of aligned codeword streams —
// the excitation stream (known to the transmitter or reported by receiver
// 1 over the backhaul) and the stream receiver 2 decoded on the adjacent
// channel — using the radio's calibrated per-window majority threshold.
// One WindowDecision is returned per complete window; DecisionBits
// flattens them. The int return is the dropped-element count: elements of
// the longer stream that had no counterpart to compare against (0 for
// aligned streams; nonzero flags a length mismatch that would previously
// have been truncated silently).
func DecodeStream(r Radio, ref, rx []byte, window int) ([]WindowDecision, int, error) {
	if err := validateStream(r, "ref", ref); err != nil {
		return nil, 0, err
	}
	if err := validateStream(r, "rx", rx); err != nil {
		return nil, 0, err
	}
	return decoder.DecodeWindows(ref, rx, window, core.WindowThreshold(r))
}

// DecodeDifferentialStream recovers tag bits from a single receiver's
// flip-feature stream (the Double-decker decision): features holds one
// 0/1 flip estimate per PHY unit as extracted by the radio's
// single-receiver path — pilot-correlation phase for WiFi, complemented-
// codebook correlation for ZigBee, filtered in-band power for Bluetooth —
// and each window is compared against its predecessor, with window 0
// anchored to the untranslated header state. No reference stream is
// needed; the radio argument is validated and kept for wire-surface
// symmetry with DecodeStream (the feature alphabet is binary for every
// radio, and all three slice at the 0.5 midpoint).
func DecodeDifferentialStream(r Radio, features []byte, window int) ([]WindowDecision, error) {
	if err := checkRadio(r); err != nil {
		return nil, err
	}
	for i, v := range features {
		if v >= 2 {
			return nil, fmt.Errorf("freerider: feature element %d is %d, want 0 or 1", i, v)
		}
	}
	return decoder.DecodeDifferentialWindows(features, window, 0.5)
}

// DecisionBits extracts just the tag bits from a DecodeStream result.
func DecisionBits(ws []WindowDecision) []byte { return decoder.Bits(ws) }

// DecodeRequest names the arguments of one stream decode: a DecodeStream
// call, or a DecodeDifferentialStream call when Single is set (Ref must
// then be empty and RX carries the flip-feature stream).
type DecodeRequest struct {
	Radio  Radio
	Ref    []byte
	RX     []byte
	Window int
	Single bool
}

// Config describes one backscatter link end to end; see core.Config.
type Config = core.Config

// Session runs excitation packets over one configured link.
type Session = core.Session

// PacketResult reports one packet's backscatter outcome.
type PacketResult = core.PacketResult

// SessionResult aggregates a multi-packet run.
type SessionResult = core.SessionResult

// DefaultConfig returns the calibrated configuration for a radio with the
// receiver at the given distance from the tag (transmitter 1 m away, LOS).
func DefaultConfig(r Radio, tagToRxMetres float64) Config {
	return core.DefaultConfig(r, tagToRxMetres)
}

// NewSession validates a configuration and prepares a link session.
func NewSession(cfg Config) (*Session, error) { return core.NewSession(cfg) }

// FaultProfile is a composable set of deterministic link impairments; see
// internal/faults. Attach one via SendOptions.Faults or Config.Faults.
type FaultProfile = faults.Profile

// ParseFaultProfile parses a fault-profile spec: a preset name from
// FaultProfileNames, "none"/"off", or a custom
// "kind:key=val,...;kind:..." string, optionally suffixed with
// "@intensity" in (0, 1].
func ParseFaultProfile(spec string) (*FaultProfile, error) { return faults.Parse(spec) }

// FaultProfileNames lists the built-in fault profiles.
func FaultProfileNames() []string { return faults.Names() }

// CodingConfig selects the Reed-Solomon code for the coded tag uplink; see
// internal/fec. Attach one via SendOptions.Coding or Config.Coding.
type CodingConfig = fec.Config

// DefaultCodingConfig returns the interleaved shortened RS(255, 223)-style
// default code.
func DefaultCodingConfig() CodingConfig { return fec.DefaultConfig() }

// SendOptions tunes the Send helper.
type SendOptions struct {
	// Attempts bounds how many excitation packets Send spends on one chunk
	// of tag bits before giving up. A backscatter link is lossy by nature —
	// individual packets fade out even well inside the operating range — so
	// a transfer retries a lost chunk instead of aborting on it. Attempts
	// must be positive: SendWithOptions and SendDetailed reject <= 0 rather
	// than silently substituting a default (Send itself uses
	// DefaultSendAttempts; start from DefaultSendOptions to tweak it).
	//
	// With Coding set, Attempts also bounds the chase-combining depth: every
	// decoded attempt's per-bit soft decisions are accumulated, and each
	// retry re-slices the running sum before re-running RS decode — so
	// attempt n decodes from the combined evidence of all n transmissions,
	// not from its own packet alone. Attempts=1 leaves exactly one soft
	// vector in the combiner, whose slicing is bit-identical to the plain
	// hard-decision decode path.
	Attempts int
	// Quaternary starts the transfer on the eq. 5 scheme: 2 tag bits per
	// window at the 12 Mbps QPSK rate. WiFi only. When the link degrades,
	// Send falls back to binary translation and probes its way back up
	// (see DegradationReport) unless DisableFallback is set.
	Quaternary bool
	// DisableFallback pins the translation scheme for the whole transfer:
	// a chunk that exhausts its attempt budget fails the transfer instead
	// of degrading to binary.
	DisableFallback bool
	// RecoverAfter is how many consecutive first-attempt chunk deliveries
	// a degraded transfer waits for before probing quaternary again; 0
	// selects DefaultRecoverAfter. Negative values are rejected with a
	// validation error, mirroring the Attempts check.
	RecoverAfter int
	// Faults attaches a fault-injection profile to the link (nil = benign
	// channel, bit-identical to a profile-free session).
	Faults *FaultProfile
	// Coding enables the Reed-Solomon coded uplink with soft
	// chase-combining: chunks shrink to the post-FEC payload capacity, the
	// ladder becomes combine → RS-correct → retransmit → scheme fallback,
	// and DegradationReport gains corrected-symbol and combining-gain
	// counts. Nil keeps the uncoded ladder bit-identical to earlier
	// builds. The combiner is reset on every scheme change (fallback or
	// probe): soft values do not align across layouts.
	Coding *CodingConfig
	// Receiver selects the decode deployment: DualReceiver (the zero
	// value, the paper's two-receiver setup) or SingleReceiver, which
	// decodes every attempt from the backscattered capture alone via the
	// differential decision. The whole degradation ladder — retransmission,
	// chase-combining, fallback — composes unchanged on top; expect more
	// retransmissions at a given range, since the single receiver's
	// effective decision window is a fraction of the dual one's.
	Receiver ReceiverMode
}

// DefaultSendAttempts is the per-chunk excitation-packet budget Send uses
// (and DefaultSendOptions carries).
const DefaultSendAttempts = 3

// DefaultRecoverAfter is how many consecutive clean chunks a degraded
// transfer observes before probing quaternary translation again.
const DefaultRecoverAfter = 4

// DefaultSendOptions returns the options Send itself runs with; tweak
// fields from here instead of building a SendOptions from zero (a zero
// Attempts is rejected, not defaulted).
func DefaultSendOptions() SendOptions {
	return SendOptions{Attempts: DefaultSendAttempts, RecoverAfter: DefaultRecoverAfter}
}

// DegradationReport describes how hard a transfer had to fight the link:
// what Send's graceful-degradation machinery (retransmission with backoff,
// quaternary→binary fallback, recovery probing) actually did.
type DegradationReport struct {
	Chunks  int // chunks delivered (including re-runs after a fallback)
	Packets int // excitation packets spent, probes included

	// Retransmissions counts attempts beyond the first within a chunk;
	// CorruptPackets the decoded-but-damaged ones among them (the
	// integrity check a real deployment gets from a chunk CRC);
	// FaultedLosses the failed attempts whose slot carried an injected
	// fault — how much of the pain was the fault profile's doing.
	Retransmissions int
	CorruptPackets  int
	FaultedLosses   int

	// BackoffSlots is the packet-time Send sat out between attempts;
	// BackoffSeconds the same in link airtime.
	BackoffSlots   int
	BackoffSeconds float64

	// Fallbacks counts quaternary→binary downgrades; Recoveries successful
	// probes back up; FinalQuaternary the scheme the transfer ended on.
	Fallbacks       int
	Recoveries      int
	FinalQuaternary bool

	// Coded-uplink accounting (SendOptions.Coding only). CorrectedSymbols
	// counts the RS symbol corrections across delivered chunks;
	// CombiningGains the deliveries where the chase-combined decode
	// succeeded but the delivering attempt alone would have failed — the
	// retransmissions whose accumulated soft history paid off.
	CorrectedSymbols int
	CombiningGains   int
}

// Degraded reports whether the transfer needed any degradation machinery.
func (r DegradationReport) Degraded() bool {
	return r.Retransmissions > 0 || r.Fallbacks > 0
}

// Send is the quickstart helper: it backscatters the given tag bits over a
// default link of the chosen radio and distance, using as many excitation
// packets as needed, and returns the decoded bits. Bits must be 0/1 values.
// Each chunk is retransmitted up to DefaultSendAttempts times (with
// exponential backoff between attempts) before the transfer fails; use
// SendWithOptions to change the budget.
func Send(r Radio, tagToRxMetres float64, bits []byte, seed int64) ([]byte, error) {
	return SendWithOptions(r, tagToRxMetres, bits, seed, DefaultSendOptions())
}

// SendWithOptions is Send with explicit options. opts.Attempts must be
// positive.
func SendWithOptions(r Radio, tagToRxMetres float64, bits []byte, seed int64, opts SendOptions) ([]byte, error) {
	out, _, err := SendDetailed(r, tagToRxMetres, bits, seed, opts)
	return out, err
}

// SendDetailed is SendWithOptions plus the transfer's DegradationReport.
// The report is meaningful even when the transfer fails (it covers the
// work done up to the failure).
//
// Degradation model: a chunk that fails an attempt backs off exponentially
// (in packet slots, with seed-derived jitter) before retrying, so
// retransmissions escape burst fades instead of hammering into them. With
// coding enabled, every decoded attempt first feeds its soft decisions
// into the chunk's chase combiner and the retry decodes from the combined
// evidence, so each retransmission adds link margin instead of starting
// over. A quaternary transfer whose chunk exhausts its budget falls back
// to binary translation — half the rate, twice the phase margin — and,
// after RecoverAfter consecutive first-attempt deliveries, risks one probe
// chunk back at quaternary.
func SendDetailed(r Radio, tagToRxMetres float64, bits []byte, seed int64, opts SendOptions) ([]byte, DegradationReport, error) {
	var rep DegradationReport
	for i, b := range bits {
		if b > 1 {
			return nil, rep, fmt.Errorf("freerider: bit %d is %d, want 0 or 1", i, b)
		}
	}
	if opts.Attempts <= 0 {
		return nil, rep, fmt.Errorf("freerider: SendOptions.Attempts is %d, want > 0 (start from DefaultSendOptions)", opts.Attempts)
	}
	if opts.RecoverAfter < 0 {
		return nil, rep, fmt.Errorf("freerider: SendOptions.RecoverAfter is %d, want >= 0 (0 selects DefaultRecoverAfter)", opts.RecoverAfter)
	}
	recoverAfter := opts.RecoverAfter
	if recoverAfter <= 0 {
		recoverAfter = DefaultRecoverAfter
	}
	cfg := DefaultConfig(r, tagToRxMetres)
	cfg.Seed = seed
	cfg.Faults = opts.Faults
	cfg.Coding = opts.Coding
	cfg.ReceiverMode = opts.Receiver
	if opts.Quaternary {
		if r != WiFi {
			return nil, rep, fmt.Errorf("freerider: quaternary translation is only implemented for WiFi")
		}
		cfg.WiFiRateMbps = 12
		cfg.Quaternary = true
	}
	s, err := NewSession(cfg)
	if err != nil {
		return nil, rep, err
	}
	// Backoff randomness lives on its own derived stream: a transfer that
	// never backs off draws nothing from it, keeping the clean-link fast
	// path bit-identical to a build without any of this machinery.
	backoffRng := rand.New(rand.NewSource(runner.DeriveSeed(seed, "freerider.send.backoff")))
	slotTime := s.PacketDuration() + s.Config().InterPacketGap

	out := make([]byte, 0, len(bits))
	fellBack := false // currently degraded to binary
	streak := 0       // consecutive first-attempt deliveries while degraded
	var comb fec.Combiner
	for off, chunkIdx := 0, 0; off < len(bits); chunkIdx++ {
		probing := false
		if fellBack && streak >= recoverAfter {
			if err := s.SetQuaternary(true); err != nil {
				return nil, rep, err
			}
			probing = true
			streak = 0
		}
		capacity := s.Capacity()
		if capacity == 0 {
			return nil, rep, fmt.Errorf("freerider: excitation packets carry no tag bits")
		}
		// Chunk planning. Uncoded: raw bits fill the packet. Coded: the
		// chunk shrinks to the layout's payload capacity and its RS
		// encoding is what the tag transmits; the combiner starts empty
		// here and again after any scheme change (the `continue`s below
		// re-enter this planning step), because soft values from different
		// layouts do not align bit-for-bit.
		hi := off + s.DataCapacity()
		if hi > len(bits) {
			hi = len(bits)
		}
		chunk := bits[off:hi]
		txBits := chunk
		var lay fec.Layout
		if opts.Coding != nil {
			lay, _ = s.Layout()
			data := chunk
			if len(data) < lay.DataBits() {
				// Final partial chunk: pad with zeros to the layout's
				// payload size; the pad is dropped after decode.
				padded := make([]byte, lay.DataBits())
				copy(padded, data)
				data = padded
			}
			var err error
			txBits, err = lay.EncodeBits(data)
			if err != nil {
				return nil, rep, err
			}
			comb.Reset(lay.CodedBits())
		}
		budget := opts.Attempts
		if probing {
			budget = 1 // a probe risks one packet, not a whole retry budget
		}
		attemptsUsed, delivered := 0, false
		var decoded []byte
		for attempt := 0; attempt < budget; attempt++ {
			if attempt > 0 {
				slots := backoffSlots(backoffRng, attempt)
				s.AdvanceSlots(slots)
				rep.BackoffSlots += slots
				rep.BackoffSeconds += float64(slots) * slotTime
				rep.Retransmissions++
			}
			pr, err := s.RunPacket(txBits)
			if err != nil {
				return nil, rep, err
			}
			rep.Packets++
			attemptsUsed++
			if opts.Coding != nil {
				data, corrected, ok := combineAndDecode(&comb, lay, pr)
				if ok && bitsEqual(data[:len(chunk)], chunk) {
					decoded = data[:len(chunk)]
					delivered = true
					rep.CorrectedSymbols += corrected
					if comb.Attempts() > 1 && !soloDecodeOK(lay, pr, chunk) {
						rep.CombiningGains++
					}
					break
				}
				if pr.Decoded {
					rep.CorruptPackets++
				}
				if !pr.Fault.IsZero() {
					rep.FaultedLosses++
				}
				continue
			}
			if pr.Decoded && pr.BitErrors == 0 {
				decoded = pr.DecodedTag
				delivered = true
				break
			}
			if pr.Decoded {
				rep.CorruptPackets++
			}
			if !pr.Fault.IsZero() {
				rep.FaultedLosses++
			}
		}
		if !delivered {
			if probing {
				// The link is not ready yet: drop back to binary and run
				// this chunk normally. No data was lost, only the probe.
				if err := s.SetQuaternary(false); err != nil {
					return nil, rep, err
				}
				continue
			}
			if s.Config().Quaternary && !opts.DisableFallback {
				// Graceful degradation: halve the rate, double the phase
				// margin, and give the chunk a fresh budget.
				if err := s.SetQuaternary(false); err != nil {
					return nil, rep, err
				}
				fellBack = true
				streak = 0
				rep.Fallbacks++
				continue
			}
			rep.FinalQuaternary = s.Config().Quaternary
			return nil, rep, fmt.Errorf("freerider: chunk %d lost after %d attempts (link too weak at %.1f m?)",
				chunkIdx, attemptsUsed, tagToRxMetres)
		}
		if probing {
			fellBack = false
			rep.Recoveries++
		}
		if fellBack {
			if attemptsUsed == 1 {
				streak++
			} else {
				streak = 0
			}
		}
		out = append(out, decoded...)
		off = hi
		rep.Chunks++
	}
	rep.FinalQuaternary = s.Config().Quaternary
	return out, rep, nil
}

// combineAndDecode folds one attempt's soft decisions into the chunk's
// chase combiner, re-slices the running sum and runs RS decode on the
// result. A lost packet (nothing decoded, or a decode too short to cover
// the coded region) contributes nothing to the combiner and fails the
// attempt. The returned ok means RS produced a valid codeword — the caller
// still compares against the payload (the stand-in for a chunk CRC).
func combineAndDecode(comb *fec.Combiner, lay fec.Layout, pr PacketResult) ([]byte, int, bool) {
	if !pr.Decoded || len(pr.SoftTag) < lay.CodedBits() {
		return nil, 0, false
	}
	comb.Add(pr.SoftTag[:lay.CodedBits()])
	combined := make([]byte, lay.CodedBits())
	comb.Slice(combined)
	return lay.DecodeBits(combined)
}

// soloDecodeOK reports whether this attempt's packet alone — hard
// decisions, no combining — would have delivered the chunk. Used to credit
// DegradationReport.CombiningGains.
func soloDecodeOK(lay fec.Layout, pr PacketResult, chunk []byte) bool {
	if len(pr.DecodedTag) < lay.CodedBits() {
		return false
	}
	data, _, ok := lay.DecodeBits(pr.DecodedTag)
	return ok && bitsEqual(data[:len(chunk)], chunk)
}

func bitsEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i]&1 != b[i]&1 {
			return false
		}
	}
	return true
}

// backoffSlots returns the packet slots to sit out before retry number
// attempt (1-based): exponential in the attempt with ±50% jitter, capped
// so a deep retry still rejoins the timeline this side of a burst fade.
func backoffSlots(rng *rand.Rand, attempt int) int {
	base := 1 << (attempt - 1)
	if base > 32 {
		base = 32
	}
	n := int(float64(base)*(0.5+rng.Float64()) + 0.5)
	if n < 1 {
		n = 1
	}
	return n
}

// MACScheme selects the multi-tag coordination discipline.
type MACScheme = mac.Scheme

// Coordination disciplines for multi-tag networks.
const (
	FramedSlottedAloha = mac.FramedSlottedAloha
	TDM                = mac.TDM
)

// NetworkConfig parameterises a multi-tag network; see mac.Config.
type NetworkConfig = mac.Config

// NetworkResult aggregates a multi-tag run; see mac.Result.
type NetworkResult = mac.Result

// DefaultNetworkConfig returns the calibrated Fig 17 configuration for n
// tags under the given scheme.
func DefaultNetworkConfig(scheme MACScheme, n int) NetworkConfig {
	return mac.DefaultConfig(scheme, n)
}

// RunNetwork simulates a multi-tag network for the given number of
// coordination rounds.
func RunNetwork(cfg NetworkConfig, rounds int) (NetworkResult, error) {
	return mac.Run(cfg, rounds)
}

// RunNetworkFirmwareLevel simulates n tags for the given rounds through
// the discrete-event model built from real tag firmware state machines:
// PLM announcements are delivered pulse by pulse through each tag's lossy
// envelope detector, so control losses emerge from the mechanism rather
// than from an analytic probability. Use it to cross-validate RunNetwork.
func RunNetworkFirmwareLevel(n, rounds int, seed int64) (NetworkResult, error) {
	cfg := sim.DefaultConfig(n)
	cfg.Seed = seed
	return sim.Run(cfg, rounds)
}

// PLMScheme is the packet-length-modulation downlink alphabet (§2.4.2).
type PLMScheme = plm.Scheme

// DefaultPLMScheme returns the ~500 bps scheme used by the prototype.
func DefaultPLMScheme() PLMScheme { return plm.DefaultScheme() }

// BitsFromBytes expands bytes into the 0/1 bit slice a tag transmits,
// least-significant bit first.
func BitsFromBytes(data []byte) []byte { return bits.FromBytes(data) }

// BytesFromBits packs a decoded 0/1 bit slice (length a multiple of 8,
// LSB first) back into bytes.
func BytesFromBits(bs []byte) ([]byte, error) { return bits.ToBytes(bs) }

// TagPowerProfile itemises the tag's microwatt budget (§3.3).
type TagPowerProfile = tag.PowerProfile

// TagPower returns the §3.3 power budget for a radio's translator with the
// given channel-shift toggle frequency.
func TagPower(r Radio, shiftHz float64) TagPowerProfile {
	switch r {
	case ZigBee:
		return tag.PowerFor(tag.ExcitationZigBee, shiftHz)
	case Bluetooth:
		return tag.PowerFor(tag.ExcitationBluetooth, shiftHz)
	default:
		return tag.PowerFor(tag.ExcitationWiFi, shiftHz)
	}
}
