GO ?= go

.PHONY: build fmt-check cmd-smoke test test-noasm cross-arm64 fma-check fma-check-update race vet staticcheck govulncheck bench bench-serve bench-serve-baseline bench-dsp bench-dsp-quick bench-dsp-baseline bench-compare golden loadtest-quick soak soak-quick fuzz-faults fuzz-fec fuzz-decoder fuzz-simd fuzz-core fuzz-server perfbench-test perfbench-quick ci

build:
	$(GO) build ./...

# fmt-check fails when any Go file is not gofmt-clean, listing the files.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:" >&2; echo "$$out" >&2; exit 1; fi

# cmd-smoke runs each command once at minimal effort, so a broken command
# or flag fails CI instead of a user. The impulsive snr-single run leaves
# both curves short of their target BER, so it holds the JSON encoding of
# a crossing that never comes (a null, not a failed encode). The
# coexistence example and the power, fig15, fig16 and waterfall runs
# exercise the per-radio tables: core.TagPower, the coexistence link
# budget and experiments.NativeLinks. The fig4, fig17, fig17sim and
# baselines runs, the chaos fig17 run and the multitag and tagloop
# examples drive the envelope detector, both multi-tag models (mac with
# and without round corruption, and sim) and the DSSS receive functions.
# The coded snr runs are the one path through a subcommand's own flags
# (-coded, -retx) and the coded link-margin study README quotes; the
# faulted JSON one also encodes the retransmission arm's result keys. The
# quickstart and sensornet examples run the public facade's Send over
# WiFi and ZigBee, so all five examples run here.
cmd-smoke:
	$(GO) run ./cmd/freerider-sim -packets 2 >/dev/null
	$(GO) run ./cmd/freerider-trace -samples 10000 >/dev/null
	$(GO) run ./cmd/freerider-calibrate -trials 1 >/dev/null
	$(GO) run ./cmd/freerider-bench -quick -json table1 power fig4 fig15 fig16 fig17 fig17sim waterfall baselines plmrate snr-single >/dev/null
	$(GO) run ./cmd/freerider-bench -quick -json -faults impulsive snr-single >/dev/null
	$(GO) run ./cmd/freerider-bench -quick -faults chaos fig17 >/dev/null
	$(GO) run ./cmd/freerider-bench -quick snr -coded -retx 2 >/dev/null
	$(GO) run ./cmd/freerider-bench -quick -json -faults brownout-tag snr -coded -retx 2 >/dev/null
	$(GO) run ./examples/quickstart >/dev/null
	$(GO) run ./examples/sensornet >/dev/null
	$(GO) run ./examples/coexistence >/dev/null
	$(GO) run ./examples/multitag >/dev/null
	$(GO) run ./examples/tagloop >/dev/null

# -shuffle=on randomises test order every run so accidental inter-test
# coupling (shared caches, package-level state) surfaces in CI instead of
# in production; the seed is printed on failure for reproduction.
test:
	$(GO) test -shuffle=on ./...

vet:
	$(GO) vet ./...

# test-noasm runs the whole suite with the SIMD assembly kernels compiled
# out (build tag noasm), proving the pure-Go fallback stands on its own:
# golden vectors, alloc pins and decoder conformance must all hold with
# internal/simd reduced to its dispatch shell.
test-noasm:
	$(GO) test -tags noasm -shuffle=on ./...

# cross-arm64 cross-compiles the full tree for arm64 and vets it. arm64
# carries no asm kernels (it builds as noasm does), so this checks that
# the pure-Go build compiles and vets on an architecture CI cannot run.
cross-arm64:
	GOOS=linux GOARCH=arm64 $(GO) build ./...
	GOOS=linux GOARCH=arm64 $(GO) vet ./...

# fma-check cross-compiles the packet-path packages for arm64 with
# -gcflags=-S and fails when a function there has more fused
# multiply-add instructions (FMADDD and kin) than
# tools/fmacheck/fma_sites.txt allows, or one the list does not name.
# arm64 fuses where amd64 never does, so each site is a place where the
# arm64 build's floats differ from the amd64 build's; the list may only
# shrink. Sites are keyed by package and function with a count, not by
# source line, so an unrelated edit cannot trip it.
# fma-check-update rewrites the list; review its diff like a golden.
FMA_PACKAGES = ./internal/signal ./internal/wifi ./internal/zigbee ./internal/channel ./internal/bluetooth ./internal/core ./internal/tag ./internal/decoder ./internal/fec ./internal/simd
fma-check:
	$(GO) run ./tools/fmacheck -list tools/fmacheck/fma_sites.txt $(FMA_PACKAGES)

fma-check-update:
	$(GO) run ./tools/fmacheck -list tools/fmacheck/fma_sites.txt -update $(FMA_PACKAGES)

# race runs the full suite under the race detector; the parallel run
# engine (internal/runner, core.RunParallel, the experiment sweeps) is the
# main subject.
race:
	$(GO) test -race -shuffle=on ./...

# staticcheck runs honnef.co/go/tools if installed; absent the binary it
# reports and succeeds so `make ci` works on minimal images.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# govulncheck scans the module against the Go vulnerability database if the
# tool is installed; like staticcheck it skips cleanly on minimal images.
govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

# bench-serve benchmarks the HTTP service path (inline decode, simulate
# on a per-request session) plus the waveform-cache contention benchmark
# through the same benchgate as the DSP suite: one JSONL trajectory point
# per run in BENCH_SERVE.json (ns/op, allocs/op, plus the coalesced/s
# and lockwait-ns/op custom metrics), gated against
# BENCH_SERVE_BASELINE.json. The contention benchmark runs a fixed
# iteration count so its ns/op and lock wait are comparable across runs.
# The serve suite has no calibration probe, so ns/op budgets are compared
# unscaled.
BENCH_SERVE_TIME_CONTENTION ?= 500000x
bench-serve:
	@( $(GO) test -bench='DecodeEndpoint|SimulateEndpoint' -benchmem -benchtime=200x -count=3 -run=^$$ ./internal/server ; \
	$(GO) test -bench=WaveformCacheContention -benchmem \
		-benchtime=$(BENCH_SERVE_TIME_CONTENTION) -count=3 -run=^$$ ./internal/waveform ) \
		| $(GO) run ./tools/benchgate -baseline BENCH_SERVE_BASELINE.json -out BENCH_SERVE.json $(BENCHGATE_FLAGS)

# bench-serve-baseline re-records BENCH_SERVE_BASELINE.json. Only run it
# for intentional performance changes.
bench-serve-baseline:
	@$(MAKE) bench-serve BENCHGATE_FLAGS=-update

# bench-dsp is the DSP-hot-path regression gate. It benchmarks the FFT
# plans, convolution (the 101-tap filter and the Bluetooth receive
# shape), the per-radio end-to-end packet (core
# BenchmarkSessionRunPacket), the channel application on a Rician link and
# the fault layer, the 1500 B WiFi PPDU synthesis (wifi
# BenchmarkTransmit1500B), appends one JSONL trajectory point to BENCH_DSP.json,
# and fails if any benchmark regresses past the checked-in
# BENCH_DSP_BASELINE.json: >15% ns/op, or allocs/op beyond
# max(old*1.05, old+2). Fixed iteration counts and min-across--count=5
# keep the gate stable on noisy shared machines: microsecond-scale
# kernels get 2000 iterations per count, the millisecond-scale per-packet
# benches get 400 (a ~1s window per count — 100-iteration runs finished
# in a quarter of a scheduler quantum and their minima still carried
# machine noise). After an intentional perf-relevant change, re-record
# with `make bench-dsp-baseline` and review the baseline diff like any
# other golden.
BENCH_DSP_TIME_FAST ?= 2000x
BENCH_DSP_TIME_E2E ?= 400x
BENCH_DSP_TIME_SWEEP ?= 2x
BENCH_DSP_COUNT ?= 5
BENCH_DSP_PATTERN = 'FFT1024|FFT64|AddAWGN|Convolve101Taps|ConvolveCapture129Taps|SessionRunPacket|Transmit1500B|LinkApply|ProfileAt|ImpairedApply|SNRSweep|CalibrationProbe|RSEncode|RSDecode|DifferentialDecode'

bench-dsp:
	@( $(GO) test -run='^$$' -bench=$(BENCH_DSP_PATTERN) -benchmem \
		-benchtime=$(BENCH_DSP_TIME_FAST) -count=$(BENCH_DSP_COUNT) \
		./internal/signal ./internal/channel ./internal/faults ./internal/fec ./internal/decoder ; \
	$(GO) test -run='^$$' -bench=$(BENCH_DSP_PATTERN) -benchmem \
		-benchtime=$(BENCH_DSP_TIME_E2E) -count=$(BENCH_DSP_COUNT) \
		./internal/wifi ./internal/core ; \
	$(GO) test -run='^$$' -bench=$(BENCH_DSP_PATTERN) -benchmem \
		-benchtime=$(BENCH_DSP_TIME_SWEEP) -count=$(BENCH_DSP_COUNT) \
		./internal/experiments ) \
		| $(GO) run ./tools/benchgate -baseline BENCH_DSP_BASELINE.json -out BENCH_DSP.json $(BENCHGATE_FLAGS)

# bench-dsp-quick is the inner-loop variant: one short pass over the DSP
# benchmark set with no baseline gate and no trajectory point, for checking
# the cost of a change before paying for the full gated run. The SNR sweep
# and experiments package are skipped — they dominate wall time and move
# only when the packet path does.
bench-dsp-quick:
	@$(GO) test -run='^$$' -bench=$(BENCH_DSP_PATTERN) -benchmem \
		-benchtime=200x -count=1 \
		./internal/signal ./internal/channel ./internal/faults ./internal/fec ./internal/decoder
	@$(GO) test -run='^$$' -bench=$(BENCH_DSP_PATTERN) -benchmem \
		-benchtime=20x -count=1 ./internal/wifi ./internal/core

# bench-dsp-baseline re-records BENCH_DSP_BASELINE.json from the current
# tree. Only run it for intentional performance changes.
bench-dsp-baseline:
	@$(MAKE) bench-dsp BENCHGATE_FLAGS=-update

# bench-compare diffs the last two recorded BENCH_DSP.json points in
# percent — run `make bench-dsp` before and after a change, then this to
# see what it cost (or bought).
bench-compare:
	@$(GO) run ./tools/benchgate -compare -out BENCH_DSP.json

# golden regenerates the PHY golden vectors after an intentional
# calibration change. Review the diff before committing.
golden:
	$(GO) test -run TestGoldenVectors -update .

# loadtest-quick is the service-layer race gate: 64 goroutines hammer
# /v1/decode with mixed radio configs over real HTTP and every response
# must be bit-identical to the serial baseline; concurrent simulates share
# one waveform cache; a simulate holds its gate slot until its run ends;
# and a closed server answers 503 while every request accepted before
# Close completes.
loadtest-quick:
	$(GO) test -race -count=1 -run 'TestDecodeConcurrentMixedRadios|TestSimulateConcurrentSharedWaveforms|TestSimulateGateHeldForRun|TestShutdownDrains' ./internal/server

# soak runs the chaos fault-injection soak at full effort: the intensity
# sweep across all three radios plus a 4 kB quaternary transfer through the
# faulted link. Exits non-zero on any invariant violation (panic,
# worker-count divergence, non-monotone residual, failed transfer).
soak:
	$(GO) run ./cmd/freerider-bench -faults chaos soak

# soak-quick is the CI-sized soak (fewer packets, 512 B transfer).
soak-quick:
	$(GO) run ./cmd/freerider-bench -quick -faults chaos soak

# fuzz-faults smoke-fuzzes the fault-profile spec parser round-trip.
fuzz-faults:
	$(GO) test -run=^$$ -fuzz=FuzzFaultProfile -fuzztime=10s ./internal/faults

# fuzz-fec smoke-fuzzes the RS codec: encode/corrupt/decode round-trip
# inside the correction radius.
fuzz-fec:
	$(GO) test -run=^$$ -fuzz=FuzzRSRoundTrip -fuzztime=10s ./internal/fec

# fuzz-decoder smoke-fuzzes all four window rules (dual-receiver compare
# and single-receiver differential, binary and quaternary) against
# truncated, mismatched and degenerate inputs, checking the structural
# invariants on every success; the quaternary rules must also ignore the
# element bits they do not use.
fuzz-decoder:
	$(GO) test -run=^$$ -fuzz=FuzzDecodeWindows$$ -fuzztime=10s ./internal/decoder
	$(GO) test -run=^$$ -fuzz=FuzzDecodeDifferentialWindows$$ -fuzztime=10s ./internal/decoder
	$(GO) test -run=^$$ -fuzz=FuzzDecodeQuaternaryWindows$$ -fuzztime=10s ./internal/decoder
	$(GO) test -run=^$$ -fuzz=FuzzDecodeDifferentialQuaternaryWindows$$ -fuzztime=10s ./internal/decoder

# fuzz-simd smoke-fuzzes the SIMD kernels differentially against their
# pure-Go twins: the Viterbi ACS fuzzer drives the dispatching call over
# the full int16 domain (saturation stripes ±32767 included, where the
# int16 kernel declines and the Go loop runs) and demands strict byte
# equality of metrics and traceback words; FuzzViterbiACSInRange maps
# its input into the kernel's range and fails if the kernel declines
# any of it or differs from the Go loop; FuzzEqualiseDispatch feeds raw
# float bits (±0, ±Inf, NaN, subnormals) as symbol bins and channel
# estimates through the WiFi equaliser and demands the Go loops' bits,
# NaN compared as a class;
# the FFT fuzzer feeds raw float bits (NaN, Inf, subnormals) and demands
# bitwise identity on every non-NaN bin. These skip cleanly on builds
# without asm kernels. The fused-modulator fuzzer transmits random PSDUs
# at random rates and scrambler seeds and demands bitwise sample equality
# with the reference interleave → map → IFFT chain, over whichever FFT
# kernels the build dispatches to. The receive-kernel fuzzers feed raw
# float bits and hostile captures (random lengths, NaN/Inf samples,
# truncated or shifted preambles) through both dispatch modes: the FIR
# fuzzer demands identity with the scatter-form convolution reference,
# the ZigBee preamble-scan fuzzer the (start, quality) of the test-only
# reference scan in both modes through the correlator ZigBee and WiFi
# share (signal.Correlate), and the three receiver fuzzers no panic, a
# frame or a sentinel error, and identical results with the Go loops and
# the asm kernels (all three also hold the detection scan to its
# reference scan in both modes, the WiFi and ZigBee ones also with the
# scan filling a NaN-poisoned capture as it reads it; the WiFi one also
# toggles pilot-phase tracking and pilot-phase collection, and its
# seed corpus holds crafted SIGNAL fields: every RATE code, both parities,
# LENGTH 0, 1, 4095 and one past the capture). The AWGN
# fuzzer drives seed, length, stream offset and noise power (zero,
# subnormal, huge, non-finite) through the block noise stream in both
# dispatch modes and demands the samples and stream position of the
# rand.NormFloat64 loop it replaced. FuzzPackDispatch holds the AWGN
# pack kernel (simd.Pack) to its Go definition over random drop masks
# of any density, 0–4100 draws, starts off the 32-byte grid, and in
# place and separate destinations, and demands the same kept draws and
# count and no write past the draws. FuzzScaleDispatch feeds raw float
# bits (gain, divisor, samples) through the elementwise complex kernels
# (Scale, ScalePower, DivScale, and Mul, the overlap-save bin product)
# at every length and start phase, in place and into a separate buffer,
# and demands their Go definitions' bits, power sum and NaN report. FuzzDerotateDispatch feeds raw float bits
# (offset, rate, samples) through the CFO rotor in both dispatch modes,
# in place and into a separate buffer, and the rotor kernel on phasor
# tables drawn from the same bits, and demands the Go definition's
# bits, NaN compared as a class. FuzzOverlapSave feeds raw float bits as
# samples through the Bluetooth channel filter's overlap-save form in
# both dispatch modes and demands identical bits across the modes, the
# direct convolution's bits on every block a non-finite value reaches,
# and the stated error bound everywhere else.
fuzz-simd:
	$(GO) test -run=^$$ -fuzz=FuzzViterbiACS$$ -fuzztime=10s ./internal/wifi
	$(GO) test -run=^$$ -fuzz=FuzzViterbiACSInRange$$ -fuzztime=10s ./internal/wifi
	$(GO) test -run=^$$ -fuzz=FuzzEqualiseDispatch$$ -fuzztime=10s ./internal/wifi
	$(GO) test -run=^$$ -fuzz=FuzzFFTSIMD -fuzztime=10s ./internal/signal
	$(GO) test -run=^$$ -fuzz=FuzzTransmitFused -fuzztime=10s ./internal/wifi
	$(GO) test -run=^$$ -fuzz=FuzzConvolveDispatch$$ -fuzztime=10s ./internal/signal
	$(GO) test -run=^$$ -fuzz=FuzzPreambleCorrDispatch$$ -fuzztime=10s ./internal/zigbee
	$(GO) test -run=^$$ -fuzz=FuzzZigBeeReceive$$ -fuzztime=10s ./internal/zigbee
	$(GO) test -run=^$$ -fuzz=FuzzBluetoothReceive$$ -fuzztime=10s ./internal/bluetooth
	$(GO) test -run=^$$ -fuzz=FuzzWiFiReceive$$ -fuzztime=10s ./internal/wifi
	$(GO) test -run=^$$ -fuzz=FuzzAWGN$$ -fuzztime=10s ./internal/signal
	$(GO) test -run=^$$ -fuzz=FuzzPackDispatch$$ -fuzztime=10s ./internal/signal
	$(GO) test -run=^$$ -fuzz=FuzzScaleDispatch$$ -fuzztime=10s ./internal/simd
	$(GO) test -run=^$$ -fuzz=FuzzDerotateDispatch$$ -fuzztime=10s ./internal/signal
	$(GO) test -run=^$$ -fuzz=FuzzOverlapSave$$ -fuzztime=10s ./internal/signal

# fuzz-core smoke-fuzzes session configuration: random radio, rate,
# payload size, redundancy, receiver mode, quaternary flag and coding must
# either be rejected by NewSession or run a packet through RunPacket and
# RunPacketBatch without error, decoding no more bits than the tag sent.
fuzz-core:
	$(GO) test -run=^$$ -fuzz=FuzzSessionConfig -fuzztime=10s ./internal/core

# fuzz-server posts arbitrary bodies to /v1/encode, /v1/decode and
# /v1/simulate, and arbitrary query strings to /v1/experiments/power,
# through the server's handler: each must answer 200 with a JSON object
# or a 4xx/5xx JSON error, never a 500 and never a panic.
fuzz-server:
	$(GO) test -run=^$$ -fuzz=FuzzEncodeBody$$ -fuzztime=10s ./internal/server
	$(GO) test -run=^$$ -fuzz=FuzzDecodeBody$$ -fuzztime=10s ./internal/server
	$(GO) test -run=^$$ -fuzz=FuzzSimulateBody$$ -fuzztime=10s ./internal/server
	$(GO) test -run=^$$ -fuzz=FuzzExperimentQuery$$ -fuzztime=10s ./internal/server

# perfbench-test runs the repository benchmark's own tests (percentile
# selection, span accounting, a smoke run of each workload). perfbench/
# is a separate Go module, so `go test ./...` at the root never sees it.
perfbench-test:
	cd perfbench && $(GO) test ./...

# perfbench-quick runs the repository benchmark for 5 seconds at seed 1
# on each packet workload (see perfbench/README.md): wifi-fresh covers the
# uncached WiFi path, zb-bt-replay the ZigBee and Bluetooth paths. It fails
# when a run reports an incorrect result or any failed operation; each
# metric line is printed either way.
perfbench-quick:
	@for w in wifi-fresh zb-bt-replay; do \
		out=$$(bash perfbench/run.sh --workload $$w --seed 1 --seconds 5) || exit 1; \
		echo "$$out" | tail -n 1; \
		if echo "$$out" | grep -q '"correct":false'; then echo "perfbench-quick: $$w: incorrect output" >&2; exit 1; fi; \
		if echo "$$out" | grep -Eq '"failed":[1-9]'; then echo "perfbench-quick: $$w: failed operations" >&2; exit 1; fi; \
	done

# ci is the gate: every Go file must be gofmt-clean, everything must
# build (natively and cross-compiled for arm64, which runs the pure-Go
# kernels, with no new fused multiply-add in the packet path), every
# command must run, pass vet (and staticcheck and
# govulncheck where installed), pass the suite with the race detector on
# (in shuffled order) and again with the asm kernels compiled out, hold the
# service layer bit-identical under concurrent load, survive the quick
# chaos soak, keep the fault-spec, RS-codec, window decoder, SIMD
# differential, session-config and HTTP body and query fuzzers clean, pass
# the repository benchmark's tests and quick runs, and stay within the DSP
# and serve benchmark budgets.
ci: fmt-check build cmd-smoke cross-arm64 fma-check vet staticcheck govulncheck race test-noasm loadtest-quick soak-quick fuzz-faults fuzz-fec fuzz-decoder fuzz-simd fuzz-core fuzz-server perfbench-test perfbench-quick bench-dsp bench-serve
