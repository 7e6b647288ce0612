package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/fec"
	"repro/internal/waveform"
)

// Packet workloads: a distance sweep of core.Sessions driven through
// RunParallel, the call internal/experiments and /v1/simulate make.

const (
	// wifiPackets, zigbeePackets and btPackets are the RunParallel sizes of
	// one sweep-point call, whole DefaultBatchSize batches so two workers
	// stay balanced. ZigBee packets cost about half a Bluetooth packet, so
	// a ZigBee call carries twice as many: every call of a sweep then does
	// about the same work and the call-latency distribution has one mode,
	// whose median and tail do not jump between radios from run to run.
	// A WiFi packet's cost depends on whether it is detected, so WiFi calls
	// carry eight batches, which keeps the two workers' shares even.
	wifiPackets   = 64
	zigbeePackets = 64
	btPackets     = 32
	// Each call is followed by single-packet latency probes of its first
	// packets, one per packetsPerProbe packets of the call, so a radio's
	// share of probes matches its share of packets.
	packetsPerProbe = 16
	// A run cycles through `variants` channel realisations of the sweep:
	// variant 0 is the set-up sessions, the others re-seed each point from
	// its seed and the variant. A few packets can cost many times the rest
	// — a weak capture makes the ZigBee receiver scan it end to end — so
	// one realisation would let a lucky or unlucky seed decide the figures;
	// eight spread a run over about 3000 distinct packets.
	variants = 8
	// replayCacheBytes holds a workload's whole waveform working set, so
	// steady-state lookups never evict and hit or miss the same way on
	// every run.
	replayCacheBytes = 256 << 20
)

// point is one sweep point: a named session config and the packets one
// RunParallel call runs on it.
type point struct {
	Name    string
	Cfg     core.Config
	Packets int
}

// packetWorkload names a sweep and how to warm it up.
type packetWorkload struct {
	name   string
	cached bool
	points func(seed int64) []point
	// warm lists the point indices set-up runs warmPackets packets on
	// (0: the point's whole call): enough to build FFT plans and scratch
	// pools, and with a cache to synthesise every waveform the sweep will
	// replay.
	warm        []int
	warmPackets int
}

var wifiFresh = packetWorkload{
	name: "wifi-fresh",
	points: func(seed int64) []point {
		var pts []point
		for i, d := range []float64{2, 10, 20, 30, 40, 50} {
			cfg := core.DefaultConfig(core.WiFi, d)
			cfg.Seed = mixSeed(seed, "wifi-fresh", i)
			pts = append(pts, point{fmt.Sprintf("wifi-dual-%gm", d), cfg, wifiPackets})
		}
		return pts
	},
	warm:        []int{0, 5},
	warmPackets: 16,
}

var zbBTReplay = packetWorkload{
	name:   "zb-bt-replay",
	cached: true,
	points: func(seed int64) []point {
		content := mixSeed(seed, "zb-bt-replay-content", 0)
		type spec struct {
			radio  core.Radio
			mode   core.ReceiverMode
			coded  bool
			metres float64
		}
		specs := []spec{
			{core.ZigBee, core.DualReceiver, false, 2},
			{core.ZigBee, core.DualReceiver, false, 15},
			{core.ZigBee, core.DualReceiver, false, 20},
			{core.ZigBee, core.SingleReceiver, false, 10},
			{core.ZigBee, core.DualReceiver, true, 15},
			{core.Bluetooth, core.DualReceiver, false, 2},
			{core.Bluetooth, core.DualReceiver, false, 8},
			{core.Bluetooth, core.SingleReceiver, false, 5},
			{core.Bluetooth, core.DualReceiver, true, 5},
		}
		var pts []point
		for i, sp := range specs {
			cfg := core.DefaultConfig(sp.radio, sp.metres)
			cfg.Seed = mixSeed(seed, "zb-bt-replay", i)
			cfg.ContentSeed = content
			cfg.ReceiverMode = sp.mode
			name := fmt.Sprintf("%s-%s-%gm", radioKey(sp.radio), sp.mode, sp.metres)
			if sp.coded {
				c := fec.DefaultConfig()
				cfg.Coding = &c
				name = fmt.Sprintf("%s-coded-%gm", radioKey(sp.radio), sp.metres)
			}
			n := btPackets
			if sp.radio == core.ZigBee {
				n = zigbeePackets
			}
			pts = append(pts, point{name, cfg, n})
		}
		return pts
	},
	// The first uncoded and the coded point of each radio: together they
	// synthesise every distinct waveform of the sweep.
	warm: []int{0, 4, 5, 8},
}

func radioKey(r core.Radio) string {
	switch r {
	case core.ZigBee:
		return "zigbee"
	case core.Bluetooth:
		return "bluetooth"
	}
	return "wifi"
}

// packetState is one set-up of a packet workload.
type packetState struct {
	points   []point
	sessions []*core.Session // variant 0, one per point
	cache    *waveform.Cache
}

// session builds point i's session for a variant's channel realisation.
func (st *packetState) session(i, variant int) (*core.Session, error) {
	cfg := st.points[i].Cfg
	cfg.Waveforms = st.cache
	if variant != 0 {
		cfg.Seed = mixSeed(cfg.Seed, "variant", variant)
	}
	s, err := core.NewSession(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", st.points[i].Name, err)
	}
	return s, nil
}

// setupPackets builds the sweep's sessions (sharing one waveform cache
// when the workload replays) and warms them.
func setupPackets(w packetWorkload, seed int64, workers int) (*packetState, error) {
	st := &packetState{points: w.points(seed)}
	if w.cached {
		st.cache = waveform.New(replayCacheBytes)
	}
	for i := range st.points {
		s, err := st.session(i, 0)
		if err != nil {
			return nil, err
		}
		st.sessions = append(st.sessions, s)
	}
	for _, i := range w.warm {
		n := w.warmPackets
		if n == 0 {
			n = st.points[i].Packets
		}
		if _, err := st.sessions[i].RunParallel(n, workers); err != nil {
			return nil, fmt.Errorf("warm %s: %w", st.points[i].Name, err)
		}
	}
	return st, nil
}

// repeats holds the wall and CPU time, in ms, of every repeat of one
// operation.
type repeats struct{ wall, cpu []float64 }

func (r *repeats) add(wall, cpu time.Duration) {
	r.wall = append(r.wall, ms(wall))
	r.cpu = append(r.cpu, ms(cpu))
}

// timedCall is one variant's RunParallel call on one sweep point.
type timedCall struct {
	repeats
	packets int
	first   core.SessionResult
}

// timedProbe is one single-packet RunPacketBatch probe.
type timedProbe struct {
	repeats
	first outcome
}

// packetRun is the untraced measurement of a packet workload.
type packetRun struct {
	outcomeTally

	cycles     int
	calls      []timedCall            // variant v, point i at v*len(points)+i
	probes     map[[3]int]*timedProbe // by variant, point, packet index
	wall, cpu  time.Duration
	mallocs    uint64
	allocBytes uint64
}

// measurePackets runs whole cycles until d has passed, at least one. A
// cycle runs every variant of every sweep point: one RunParallel call,
// then its single-packet RunPacketBatch probes. Every call must equal the
// first result of the same call and account for every packet; every probe
// must decode as its first run did.
func measurePackets(st *packetState, d time.Duration, workers int) (*packetRun, error) {
	np := len(st.points)
	run := &packetRun{calls: make([]timedCall, variants*np), probes: map[[3]int]*timedProbe{}}
	sessions := make([]*core.Session, variants*np)
	copy(sessions, st.sessions)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start, cpu0 := time.Now(), cpuTime()
	var cycle time.Duration
	for run.cycles == 0 || time.Since(start)+cycle/2 < d {
		c0 := time.Now()
		for v := 0; v < variants; v++ {
			for i, p := range st.points {
				if err := run.callAndProbe(st, sessions, v, i, p, workers); err != nil {
					return nil, err
				}
			}
		}
		cycle = time.Since(c0)
		run.cycles++
	}
	run.wall, run.cpu = time.Since(start), cpuTime()-cpu0
	runtime.ReadMemStats(&ms1)
	run.mallocs = ms1.Mallocs - ms0.Mallocs
	run.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	return run, nil
}

// callAndProbe times variant v of point i once and checks its outputs.
func (run *packetRun) callAndProbe(st *packetState, sessions []*core.Session, v, i int, p point, workers int) error {
	np := len(st.points)
	s := sessions[v*np+i]
	if s == nil {
		var err error
		if s, err = st.session(i, v); err != nil {
			return err
		}
		sessions[v*np+i] = s
	}
	c := &run.calls[v*np+i]
	t0, c0 := time.Now(), cpuTime()
	res, err := s.RunParallel(p.Packets, workers)
	c.add(time.Since(t0), cpuTime()-c0)
	run.attempted += p.Packets
	switch {
	case err != nil:
		run.fail(p.Packets, fmt.Sprintf("%s variant %d: %v", p.Name, v, err))
	case len(c.wall) == 1:
		c.packets, c.first = p.Packets, res
		if res.Packets != p.Packets || res.PacketsLost > p.Packets {
			run.fail(p.Packets, fmt.Sprintf("%s variant %d: %d packets, %d lost of %d", p.Name, v, res.Packets, res.PacketsLost, p.Packets))
		}
	case res != c.first:
		run.fail(p.Packets, fmt.Sprintf("%s variant %d cycle %d: result changed", p.Name, v, run.cycles))
	}
	for k := 0; k < p.Packets/packetsPerProbe; k++ {
		t0 = time.Now()
		prs, err := s.RunPacketBatch(k, 1)
		dt := time.Since(t0)
		run.attempted++
		if err != nil {
			run.fail(1, fmt.Sprintf("%s variant %d probe %d: %v", p.Name, v, k, err))
			continue
		}
		key := [3]int{v, i, k}
		pr := run.probes[key]
		if pr == nil {
			pr = &timedProbe{first: outcomeOf(prs[0])}
			run.probes[key] = pr
		} else if outcomeOf(prs[0]) != pr.first {
			run.fail(1, fmt.Sprintf("%s variant %d probe %d: outcome changed", p.Name, v, k))
		}
		pr.add(dt, 0)
	}
	return nil
}

// verifyPackets checks variant 0 against a serial Session.Run of the first
// point (any seed) and against the recorded results (default seed).
func verifyPackets(w packetWorkload, st *packetState, run *packetRun, seed int64) {
	serial, err := st.sessions[0].Run(st.points[0].Packets)
	if err != nil || serial != run.calls[0].first {
		run.fail(st.points[0].Packets, fmt.Sprintf("%s: RunParallel differs from serial Run (err %v)", st.points[0].Name, err))
	}
	if seed != defaultSeed {
		return
	}
	want := recorded[w.name]
	for i, p := range st.points {
		exp, ok := want[p.Name]
		got := summarize(run.calls[i].first)
		if !ok || exp != got {
			run.fail(p.Packets, fmt.Sprintf("%s: result %+v, recorded %+v", p.Name, got, exp))
		}
	}
}

// packetEndToEnd reports a packet workload's end-to-end metrics from the
// median repeat of every call and probe: the work repeats exactly, so the
// median is the time it takes on the host's usual state, which the host's
// brief faster and slower spells do not move. A call is one sweep point's
// RunParallel (what a /v1/simulate request runs); a decode is one packet
// whose tag bits decode, run through the whole pipeline on its own: the
// per-packet latency freerider.Send sees. Lost packets are left out of it
// — finding nothing costs a different amount from decoding, and the two
// modes would put the median wherever the run's loss rate happened to fall
// — but they stay in the calls.
func packetEndToEnd(run *packetRun, setup []float64, m metrics) {
	var packets int
	var callWall, callCPU, probeWall float64
	var callMs, decodeMs []float64
	for _, c := range run.calls {
		w := median(c.wall)
		packets += c.packets
		callWall += w
		callCPU += median(c.cpu)
		callMs = append(callMs, w)
	}
	for _, p := range run.probes {
		w := median(p.wall)
		probeWall += w
		if p.first.Decoded {
			decodeMs = append(decodeMs, w)
		}
	}
	m.set("setup_s", median(setup), "s")
	m.set("packets_per_s", 1e3*float64(packets)/callWall, "packets/s")
	m.set("cpu_ms_per_op", callCPU/float64(packets), "ms")
	m.setQuantile("decode_ms_p50", percentile(decodeMs, 50), "ms")
	m.setQuantile("decode_ms_p99", tailPercentile(decodeMs, 99), "ms")
	m.setQuantile("simulate_ms_p50", percentile(callMs, 50), "ms")
	m.setQuantile("simulate_ms_p90", tailPercentile(callMs, 90), "ms")
	m.set("requests_per_s", 1e3*float64(len(run.calls)+len(run.probes))/(callWall+probeWall), "1/s")
}

// resultSummary is the part of a SessionResult the recorded results pin.
type resultSummary struct {
	Packets         int `json:"packets"`
	Lost            int `json:"lost"`
	DecodedBits     int `json:"decoded_bits"`
	BitErrors       int `json:"bit_errors"`
	RSFailures      int `json:"rs_failures"`
	DroppedElements int `json:"dropped_elements"`
}

func summarize(r core.SessionResult) resultSummary {
	return resultSummary{
		Packets: r.Packets, Lost: r.PacketsLost, DecodedBits: r.TagBitsDecoded,
		BitErrors: r.BitErrors, RSFailures: r.RSFailures, DroppedElements: r.DroppedElements,
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
