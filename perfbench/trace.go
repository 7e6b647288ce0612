package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer. Spans of one packet or request
// share an ID; Parent indexes the enclosing span in the same tracer (-1 for
// a root).
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory for one goroutine. A nil *tracer records
// nothing, so the same replay code runs traced and untraced.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int
}

func newTracer(epoch time.Time) *tracer { return &tracer{epoch: epoch} }

// begin opens a span under the innermost open one and returns its handle.
func (t *tracer) begin(name string, id int) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: int64(time.Since(t.epoch))})
	i := len(t.spans) - 1
	t.open = append(t.open, i)
	return i
}

// end closes the span begin returned; spans close innermost first.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].End = int64(time.Since(t.epoch))
	t.open = t.open[:len(t.open)-1]
}

// selfTimes returns each span's duration minus the part of its interval
// covered by its children (overlapping children count once).
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = (s.End - s.Start) - covered(s, spans, children[i])
	}
	return self
}

// covered is the length of the union of the child intervals, clipped to
// the parent's interval.
func covered(parent span, spans []span, kids []int) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := spans[k].Start, spans[k].End
		if lo < parent.Start {
			lo = parent.Start
		}
		if hi > parent.End {
			hi = parent.End
		}
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	curLo, curHi := int64(0), int64(-1)
	for _, x := range iv {
		if x[0] > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = x[0], x[1]
			continue
		}
		if x[1] > curHi {
			curHi = x[1]
		}
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// stageRow is one line of a stage table: a span name's self time summed
// over a trace, per packet (or request) that ran it, and as a share of the
// root spans' total time.
type stageRow struct {
	Stage           string  `json:"stage"`
	Calls           int     `json:"calls"`
	Packets         int     `json:"packets"`
	SelfUsTotal     float64 `json:"self_us_total"`
	SelfUsPerPacket float64 `json:"self_us_per_packet"`
	Share           float64 `json:"share"`
}

// stageTable aggregates self time by span name, sorted by descending share.
func stageTable(spans []span) []stageRow {
	self := selfTimes(spans)
	type acc struct {
		calls int
		ids   map[int]bool
		ns    int64
	}
	by := map[string]*acc{}
	var rootNs int64
	for i, s := range spans {
		if s.Parent < 0 {
			rootNs += s.End - s.Start
		}
		a := by[s.Name]
		if a == nil {
			a = &acc{ids: map[int]bool{}}
			by[s.Name] = a
		}
		a.calls++
		a.ids[s.ID] = true
		a.ns += self[i]
	}
	rows := make([]stageRow, 0, len(by))
	for name, a := range by {
		r := stageRow{
			Stage:           name,
			Calls:           a.calls,
			Packets:         len(a.ids),
			SelfUsTotal:     float64(a.ns) / 1e3,
			SelfUsPerPacket: float64(a.ns) / 1e3 / float64(len(a.ids)),
		}
		if rootNs > 0 {
			r.Share = float64(a.ns) / float64(rootNs)
		}
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Share != rows[j].Share {
			return rows[i].Share > rows[j].Share
		}
		return rows[i].Stage < rows[j].Stage
	})
	return rows
}

// stageCoverage compares the traced stages against the same packets run
// whole: coverage is the summed stage time (root spans' children) over the
// whole-packet time, residual the whole-packet time the stages leave
// unexplained, per packet in microseconds.
func stageCoverage(stageNs, wholeNs int64, packets int) (coverage, residualUs float64) {
	if wholeNs <= 0 || packets <= 0 {
		return 0, 0
	}
	return float64(stageNs) / float64(wholeNs), float64(wholeNs-stageNs) / 1e3 / float64(packets)
}

// childNs sums, over root spans, the time their children cover.
func childNs(spans []span) int64 {
	self := selfTimes(spans)
	var n int64
	for i, s := range spans {
		if s.Parent < 0 {
			n += (s.End - s.Start) - self[i]
		}
	}
	return n
}

// writeSpans dumps spans as JSON lines, one span per line, each tagged with
// the trace it belongs to.
func writeSpans(path string, traces map[string][]span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	names := make([]string, 0, len(traces))
	for name := range traces {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, s := range traces[name] {
			rec := struct {
				Trace string `json:"trace"`
				span
			}{name, s}
			if err := enc.Encode(rec); err != nil {
				f.Close()
				return fmt.Errorf("write %s: %w", path, err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
