package freerider

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/runner"
)

func patternBits(n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(i % 2)
	}
	return out
}

// TestSendAttemptsValidation is the satellite contract: a zero or negative
// Attempts is a caller mistake, rejected instead of silently defaulted.
func TestSendAttemptsValidation(t *testing.T) {
	for _, attempts := range []int{0, -1} {
		opts := DefaultSendOptions()
		opts.Attempts = attempts
		if _, err := SendWithOptions(ZigBee, 2, []byte{1, 0, 1}, 1, opts); err == nil {
			t.Fatalf("Attempts=%d accepted", attempts)
		} else if !strings.Contains(err.Error(), "Attempts") {
			t.Fatalf("Attempts=%d error does not name the field: %v", attempts, err)
		}
		if _, _, err := SendDetailed(ZigBee, 2, []byte{1}, 1, opts); err == nil {
			t.Fatalf("SendDetailed accepted Attempts=%d", attempts)
		}
	}
	if DefaultSendOptions().Attempts != DefaultSendAttempts {
		t.Fatal("DefaultSendOptions carries the wrong attempt budget")
	}
}

// TestSendExhaustionUnderPermanentOutage: every chunk lost at every attempt
// — the excitation transmitter never comes back, so the first chunk burns
// its whole budget and the transfer fails with the exhaustion error.
func TestSendExhaustionUnderPermanentOutage(t *testing.T) {
	prof, err := ParseFaultProfile("outage:period=1,len=1")
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultSendOptions()
	opts.Faults = prof
	out, rep, err := SendDetailed(ZigBee, 2, patternBits(10), 3, opts)
	if err == nil {
		t.Fatalf("transfer through a dead excitation transmitter succeeded: %v", out)
	}
	if !strings.Contains(err.Error(), "lost after") {
		t.Fatalf("wrong failure mode: %v", err)
	}
	if rep.Chunks != 0 || rep.Packets != DefaultSendAttempts {
		t.Fatalf("report off: want 0 chunks and %d packets, got %+v", DefaultSendAttempts, rep)
	}
	if rep.FaultedLosses != DefaultSendAttempts {
		t.Fatalf("every loss was fault-injected, report says %d of %d", rep.FaultedLosses, rep.Packets)
	}
	if rep.Retransmissions != DefaultSendAttempts-1 || rep.BackoffSlots == 0 {
		t.Fatalf("retry machinery unused before giving up: %+v", rep)
	}
}

// TestSendFinalChunkLossRecovers: only the last chunk's first attempt hits
// a fault (a one-slot outage aimed at its slot); backoff skips past it and
// the retry delivers, so the transfer completes with a populated report.
func TestSendFinalChunkLossRecovers(t *testing.T) {
	// ZigBee packets carry 50 tag bits: 130 bits = 3 chunks on slots 0,1,2.
	prof, err := ParseFaultProfile("outage:period=100000,len=1,start=2")
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultSendOptions()
	opts.Faults = prof
	payload := patternBits(130)
	out, rep, err := SendDetailed(ZigBee, 2, payload, 3, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, payload) {
		t.Fatal("recovered transfer corrupted the payload")
	}
	if rep.Chunks != 3 {
		t.Fatalf("chunk count %d, want 3", rep.Chunks)
	}
	if rep.Retransmissions == 0 || rep.FaultedLosses == 0 || rep.BackoffSlots == 0 {
		t.Fatalf("final-chunk loss left no trace in the report: %+v", rep)
	}
	if !rep.Degraded() {
		t.Fatal("a retransmitting transfer must report Degraded")
	}
}

// TestBackoffSlotsBounded holds every retry's backoff within ±50% of its
// base, min(2^(attempt-1), 32), rounded: [⌈base/2⌉, ⌊1.5·base+0.5⌋]. From
// retry 64 on an uncapped shift overflowed and backed off 1 slot.
func TestBackoffSlotsBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for attempt := 1; attempt <= 100; attempt++ {
		base := 32
		if attempt <= 6 {
			base = 1 << (attempt - 1)
		}
		lo, hi := (base+1)/2, (3*base+1)/2
		for i := 0; i < 200; i++ {
			if n := backoffSlots(rng, attempt); n < lo || n > hi {
				t.Fatalf("attempt %d: %d slots, want [%d, %d]", attempt, n, lo, hi)
			}
		}
	}
}

// TestSendRetryDeterminism: the retry RNG is derived from the transfer
// seed, so identical transfers — including their backoff schedules — are
// bit-identical whether they run serially or spread across RunParallel-style
// worker pools of any size.
func TestSendRetryDeterminism(t *testing.T) {
	prof, err := ParseFaultProfile("outage:period=100000,len=1,start=2")
	if err != nil {
		t.Fatal(err)
	}
	payload := patternBits(130)
	run := func() ([]byte, DegradationReport) {
		opts := DefaultSendOptions()
		opts.Faults = prof
		out, rep, err := SendDetailed(ZigBee, 2, payload, 9, opts)
		if err != nil {
			t.Fatal(err)
		}
		return out, rep
	}
	wantOut, wantRep := run()
	for _, workers := range []int{1, 4, 0} {
		const transfers = 3
		outs := make([][]byte, transfers)
		reps := make([]DegradationReport, transfers)
		if _, err := runner.Map(transfers, workers, func(i int) error {
			outs[i], reps[i] = run()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < transfers; i++ {
			if !bytes.Equal(outs[i], wantOut) || reps[i] != wantRep {
				t.Fatalf("workers=%d transfer %d diverged:\n want %+v\n got  %+v",
					workers, i, wantRep, reps[i])
			}
		}
	}
}

// TestSendCleanLinkUndegraded: with no profile attached the machinery is
// invisible — one packet per chunk, no backoff, no fallback, and output
// identical to the plain Send path.
func TestSendCleanLinkUndegraded(t *testing.T) {
	payload := patternBits(80)
	out, rep, err := SendDetailed(ZigBee, 2, payload, 5, DefaultSendOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, payload) {
		t.Fatal("clean transfer corrupted the payload")
	}
	if rep.Degraded() || rep.BackoffSlots != 0 || rep.Packets != rep.Chunks {
		t.Fatalf("clean link still tripped degradation: %+v", rep)
	}
	plain, err := Send(ZigBee, 2, payload, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain, out) {
		t.Fatal("Send and SendDetailed disagree on a clean link")
	}
}

// TestSendQuaternaryRequiresWiFi: the eq. 5 scheme only exists for OFDM.
func TestSendQuaternaryRequiresWiFi(t *testing.T) {
	opts := DefaultSendOptions()
	opts.Quaternary = true
	if _, err := SendWithOptions(ZigBee, 2, []byte{1}, 1, opts); err == nil {
		t.Fatal("quaternary ZigBee accepted")
	}
}

// TestSendBurstyWiFiGracefulDegradation is the PR's acceptance scenario: a
// 4 kB quaternary transfer under the bursty-wifi profile completes, with
// the binary fallback engaging (and recovering) along the way, while the
// identical transfer with faults disabled sails through undegraded and
// bit-identical to the plain clean-link output.
func TestSendBurstyWiFiGracefulDegradation(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second 4 kB sample-level transfer")
	}
	prof, err := ParseFaultProfile("bursty-wifi")
	if err != nil {
		t.Fatal(err)
	}
	payload := patternBits(4096 * 8)
	opts := DefaultSendOptions()
	opts.Quaternary = true
	opts.Faults = prof
	out, rep, err := SendDetailed(WiFi, 4, payload, 1, opts)
	if err != nil {
		t.Fatalf("bursty-wifi transfer failed: %v (report %+v)", err, rep)
	}
	if !bytes.Equal(out, payload) {
		t.Fatal("degraded transfer corrupted the payload")
	}
	if rep.Fallbacks == 0 {
		t.Fatalf("binary fallback never engaged: %+v", rep)
	}
	if rep.Recoveries == 0 || !rep.FinalQuaternary {
		t.Fatalf("transfer never probed its way back to quaternary: %+v", rep)
	}
	if rep.Retransmissions == 0 || rep.FaultedLosses == 0 || rep.BackoffSlots == 0 {
		t.Fatalf("report not populated: %+v", rep)
	}

	// Same transfer, faults off: no degradation, output bit-identical to
	// the payload (what the pre-fault-layer code produced for this seed).
	clean := opts
	clean.Faults = nil
	cleanOut, cleanRep, err := SendDetailed(WiFi, 4, payload, 1, clean)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cleanOut, payload) {
		t.Fatal("clean transfer not bit-identical to the payload")
	}
	if cleanRep.Degraded() || cleanRep.Packets != cleanRep.Chunks {
		t.Fatalf("clean transfer tripped degradation: %+v", cleanRep)
	}
}
