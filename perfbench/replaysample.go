package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/waveform"
)

// replayRun is one traced pass over a sample of a workload's configs.
type replayRun struct {
	name       string
	spans      []span
	packets    int
	wholeNs    int64 // serial RunPacketBatch, one packet per call
	tracedNs   int64 // stage-by-stage replay with spans
	untracedNs int64 // the same replay recording nothing
	detect     map[string][2]int
	newSession []float64 // µs per core.NewSession
	cache      *waveform.Cache
	outcomeTally
}

// newSessionReps is how many times each sample config is constructed to
// time core.NewSession.
const newSessionReps = 10

// replaySample replays packets [0, perConfig) of every point for at least
// one round and until d has passed. Each packet runs three ways: whole
// through RunPacketBatch, stage by stage with spans, and stage by stage
// untraced; all three must agree. With cached set, each way has its own
// waveform cache, so the three see the same hits and misses.
func replaySample(name string, pts []point, cached bool, perConfig int, d time.Duration) (*replayRun, error) {
	rr := &replayRun{name: name, detect: map[string][2]int{}}
	var whole, traced, untraced *waveform.Cache
	if cached {
		whole, traced, untraced = waveform.New(replayCacheBytes), waveform.New(replayCacheBytes), waveform.New(replayCacheBytes)
		rr.cache = traced
	}
	sessions := make([]*core.Session, len(pts))
	replayers := make([]*replayer, len(pts))
	for i, p := range pts {
		for rep := 0; rep < newSessionReps; rep++ {
			t0 := time.Now()
			_, err := core.NewSession(p.Cfg)
			rr.newSession = append(rr.newSession, float64(time.Since(t0))/1e3)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", p.Name, err)
			}
		}
		cfg := p.Cfg
		cfg.Waveforms = whole
		s, err := core.NewSession(cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.Name, err)
		}
		sessions[i] = s
		if replayers[i], err = newReplayer(p.Cfg); err != nil {
			return nil, fmt.Errorf("%s: %w", p.Name, err)
		}
	}
	tr := newTracer(time.Now())
	id := 0
	start := time.Now()
	for round := 0; round == 0 || time.Since(start) < d; round++ {
		for i, p := range pts {
			for idx := 0; idx < perConfig; idx++ {
				id++
				rr.attempted++
				t0 := time.Now()
				prs, err := sessions[i].RunPacketBatch(idx, 1)
				rr.wholeNs += int64(time.Since(t0))
				if err != nil {
					rr.fail(1, fmt.Sprintf("%s packet %d: %v", p.Name, idx, err))
					continue
				}
				want := outcomeOf(prs[0])
				var got, plain outcome
				var errT, errU error
				runTraced := func() {
					t := time.Now()
					got, errT = replayers[i].replay(idx, id, traced, tr)
					rr.tracedNs += int64(time.Since(t))
				}
				runPlain := func() {
					t := time.Now()
					plain, errU = replayers[i].replay(idx, id, untraced, nil)
					rr.untracedNs += int64(time.Since(t))
				}
				// Alternate which replay goes first so neither always runs
				// on the warmer caches.
				if (round+idx)%2 == 0 {
					runTraced()
					runPlain()
				} else {
					runPlain()
					runTraced()
				}
				rr.packets++
				switch {
				case errT != nil || errU != nil:
					rr.fail(1, fmt.Sprintf("%s packet %d replay: %v / %v", p.Name, idx, errT, errU))
				case got != want || plain != want:
					rr.fail(1, fmt.Sprintf("%s packet %d: replay decoded %+v, RunPacketBatch %+v", p.Name, idx, got, want))
				}
				key := radioKey(p.Cfg.Radio)
				c := rr.detect[key]
				c[1]++
				if want.Detected {
					c[0]++
				}
				rr.detect[key] = c
			}
		}
	}
	rr.spans = tr.spans
	return rr, nil
}

// replayStages are the span names the replay records around layer calls;
// each becomes a "<name>_us" per-layer metric (self time per packet that
// ran the stage).
var replayStages = []string{
	"wifi.tx", "zigbee.tx", "bluetooth.tx", "tag.translate", "waveform.lookup",
	"channel.apply", "wifi.rx", "zigbee.rx", "bluetooth.rx", "decoder.windows",
	"fec.encode", "fec.decode",
}

// layerMetrics derives the per-layer metrics one replay supports.
func (rr *replayRun) layerMetrics(m metrics) {
	rows := map[string]stageRow{}
	for _, r := range stageTable(rr.spans) {
		rows[r.Stage] = r
	}
	for _, name := range replayStages {
		if r, ok := rows[name]; ok {
			m.set(name+"_us", r.SelfUsPerPacket, "us")
		}
	}
	coverage, residual := stageCoverage(childNs(rr.spans), rr.wholeNs, rr.packets)
	m.set("core.stage_coverage", coverage, "ratio")
	m.set("core.residual_us", residual, "us")
	m.set("core.new_session_us", median(rr.newSession), "us")
	if rr.untracedNs > 0 {
		m.set("trace.overhead", float64(rr.tracedNs)/float64(rr.untracedNs), "ratio")
	}
	for radio, c := range rr.detect {
		m.set(radio+".detect_ratio", float64(c[0])/float64(c[1]), "ratio")
	}
	if rr.cache != nil {
		st := rr.cache.Stats()
		m.set("waveform.hit_ratio", st.HitRate, "ratio")
		m.set("waveform.bytes", float64(st.Bytes), "bytes")
	}
}
