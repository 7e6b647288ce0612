package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	freerider "repro"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fec"
)

// ---- JSON plumbing ----------------------------------------------------

// writeJSON encodes v before it commits the status line, so a value JSON
// cannot carry answers 500 with an error body instead of code with an
// empty one.
func writeJSON(w http.ResponseWriter, code int, v any) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		code = http.StatusInternalServerError
		buf.Reset()
		_ = enc.Encode(errorResponse{Error: fmt.Sprintf("encoding response: %v", err)}) // a string always encodes
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(buf.Bytes()) // a failed write means the client is gone
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// readJSON decodes the request body into v, translating the two transport
// failure classes to their status codes: oversize bodies (cut off by the
// middleware's MaxBytesReader) to 413 and malformed JSON to 400. It
// reports whether decoding succeeded; on failure the response is written.
func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				"request body exceeds %d bytes", tooBig.Limit)
			return false
		}
		writeError(w, http.StatusBadRequest, "malformed JSON: %v", err)
		return false
	}
	return true
}

// ---- stream wire format ----------------------------------------------

// Streams travel as strings, one character per element: '0'/'1' for the
// bit streams of WiFi and Bluetooth, hex digits '0'..'f' for ZigBee's
// 4-bit symbols. Compact, readable in a curl transcript, and trivially
// diffable against direct library output.

func parseStream(r freerider.Radio, field, s string) ([]byte, error) {
	out := make([]byte, len(s))
	zig := r == freerider.ZigBee
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '0' || c == '1':
			out[i] = c - '0'
		case zig && c >= '2' && c <= '9':
			out[i] = c - '0'
		case zig && c >= 'a' && c <= 'f':
			out[i] = c - 'a' + 10
		case zig && c >= 'A' && c <= 'F':
			out[i] = c - 'A' + 10
		default:
			return nil, fmt.Errorf("%s[%d]: invalid element %q for %s", field, i, string(c), freerider.RadioKey(r))
		}
	}
	return out, nil
}

const hexDigits = "0123456789abcdef"

func formatStream(vals []byte) string {
	var b strings.Builder
	b.Grow(len(vals))
	for _, v := range vals {
		b.WriteByte(hexDigits[v&0x0f])
	}
	return b.String()
}

// ---- /v1/encode -------------------------------------------------------

type encodeRequest struct {
	Radio   string      `json:"radio"`
	Ref     string      `json:"ref"`
	TagBits string      `json:"tag_bits"`
	Window  int         `json:"window"`
	Coding  *fec.Config `json:"coding,omitempty"`
}

type encodeResponse struct {
	Radio       string `json:"radio"`
	RX          string `json:"rx"`
	TagBitsUsed int    `json:"tag_bits_used"`
	Windows     int    `json:"windows"`
	// Coding-only fields: the payload size the layout carries and the
	// coded stream length actually mapped onto the excitation.
	DataBits  int `json:"data_bits,omitempty"`
	CodedBits int `json:"coded_bits,omitempty"`
}

func (s *Server) handleEncode(w http.ResponseWriter, r *http.Request) {
	var req encodeRequest
	if !readJSON(w, r, &req) {
		return
	}
	radio, err := freerider.ParseRadio(req.Radio)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	ref, err := parseStream(radio, "ref", req.Ref)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	tagBits, err := parseStream(freerider.WiFi, "tag_bits", req.TagBits) // tag bits are always 0/1
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	var resp encodeResponse
	if req.Coding != nil {
		// RS-encode the payload first; the coded stream is what rides the
		// excitation. The layout is sized by the stream's window capacity.
		if req.Window <= 0 {
			writeError(w, http.StatusBadRequest, "window %d must be positive with coding", req.Window)
			return
		}
		lay, err := fec.LayoutFor(len(ref)/req.Window, *req.Coding)
		if err != nil {
			writeError(w, http.StatusBadRequest, "coding: %v", err)
			return
		}
		if len(tagBits) > lay.DataBits() {
			writeError(w, http.StatusBadRequest,
				"tag_bits %d exceed the coded payload capacity %d (stream carries %d coded bits)",
				len(tagBits), lay.DataBits(), lay.CodedBits())
			return
		}
		coded, err := lay.EncodeBits(tagBits)
		if err != nil {
			writeError(w, http.StatusBadRequest, "coding: %v", err)
			return
		}
		s.tally(func(t *tallies) { t.FEC.ChunksEncoded++ })
		tagBits = coded
		resp.DataBits = lay.DataBits()
		resp.CodedBits = lay.CodedBits()
	}
	rx, used, err := freerider.EncodeStream(radio, ref, tagBits, req.Window)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	resp.Radio = freerider.RadioKey(radio)
	resp.RX = formatStream(rx)
	resp.TagBitsUsed = used
	resp.Windows = len(ref) / req.Window
	writeJSON(w, http.StatusOK, resp)
}

// ---- /v1/decode -------------------------------------------------------

type decodeRequest struct {
	Radio  string      `json:"radio"`
	Ref    string      `json:"ref"`
	RX     string      `json:"rx"`
	Window int         `json:"window"`
	Coding *fec.Config `json:"coding,omitempty"`
	// Mode selects the decode rule: "dual" (or absent — window-compare rx
	// against ref) or "single" (Double-decker differential: rx is then a
	// binary flip-feature stream and ref must be empty).
	Mode string `json:"mode,omitempty"`
}

// decodedCoding is the decode response's RS view of the hard-decision
// stream: the recovered payload bits, how many symbols the decoder had to
// correct, and whether every codeword resolved. On !ok the data bits are
// the raw hard-decision passthrough.
type decodedCoding struct {
	DataBits         string `json:"data_bits"`
	CorrectedSymbols int    `json:"corrected_symbols"`
	OK               bool   `json:"ok"`
}

type decodeResponse struct {
	Radio    string         `json:"radio"`
	Mode     string         `json:"mode"`
	TagBits  string         `json:"tag_bits"`
	Windows  int            `json:"windows"`
	Mismatch []float64      `json:"mismatch"`
	Coded    *decodedCoding `json:"coded,omitempty"`
	// DroppedElements counts stream elements truncated away because ref
	// and rx disagreed on length (dual mode only; aligned streams report
	// 0 and omit the field).
	DroppedElements int `json:"dropped_elements,omitempty"`
}

func (s *Server) handleDecode(w http.ResponseWriter, r *http.Request) {
	var req decodeRequest
	if !readJSON(w, r, &req) {
		return
	}
	radio, err := freerider.ParseRadio(req.Radio)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	mode, err := freerider.ParseReceiverMode(req.Mode)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	single := mode == freerider.SingleReceiver
	var ref, rx []byte
	if single {
		if req.Ref != "" {
			writeError(w, http.StatusBadRequest,
				"single mode decodes from rx alone; ref must be empty")
			return
		}
		// Flip features are 0/1 for every radio (the WiFi alphabet).
		rx, err = parseStream(freerider.WiFi, "rx", req.RX)
	} else {
		ref, err = parseStream(radio, "ref", req.Ref)
		if err == nil {
			rx, err = parseStream(radio, "rx", req.RX)
		}
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Validate the code before decoding the stream. In single mode the
	// stream length is rx's (there is no ref).
	var lay fec.Layout
	if req.Coding != nil {
		if req.Window <= 0 {
			writeError(w, http.StatusBadRequest, "window %d must be positive with coding", req.Window)
			return
		}
		streamLen := len(ref)
		if single {
			streamLen = len(rx)
		}
		lay, err = fec.LayoutFor(streamLen/req.Window, *req.Coding)
		if err != nil {
			writeError(w, http.StatusBadRequest, "coding: %v", err)
			return
		}
	}
	var windows []freerider.WindowDecision
	var dropped int
	if single {
		windows, err = freerider.DecodeDifferentialStream(radio, rx, req.Window)
	} else {
		windows, dropped, err = freerider.DecodeStream(radio, ref, rx, req.Window)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.tally(func(t *tallies) {
		if single {
			t.ReceiverModes.SingleDecodes++
		} else {
			t.ReceiverModes.DualDecodes++
		}
		t.ReceiverModes.DroppedElements += int64(dropped)
	})
	hard := freerider.DecisionBits(windows)
	resp := decodeResponse{
		Radio:           freerider.RadioKey(radio),
		Mode:            mode.String(),
		TagBits:         formatStream(hard),
		Windows:         len(windows),
		Mismatch:        make([]float64, len(windows)),
		DroppedElements: dropped,
	}
	for i, wd := range windows {
		resp.Mismatch[i] = wd.MismatchFraction
	}
	if req.Coding != nil {
		data, corrected, ok := lay.DecodeBits(hard)
		if data == nil {
			writeError(w, http.StatusBadRequest,
				"coding: stream yields %d bits, layout needs %d coded bits", len(hard), lay.CodedBits())
			return
		}
		s.tally(func(t *tallies) {
			t.FEC.ChunksDecoded++
			t.FEC.SymbolsCorrected += int64(corrected)
			if !ok {
				t.FEC.DecodeFailures++
			}
		})
		resp.Coded = &decodedCoding{
			DataBits:         formatStream(data),
			CorrectedSymbols: corrected,
			OK:               ok,
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// ---- /v1/simulate -----------------------------------------------------

type simulateRequest struct {
	Radio       string      `json:"radio"`
	Distance    float64     `json:"distance"`
	TxDistance  float64     `json:"tx_distance,omitempty"`
	NLOS        bool        `json:"nlos,omitempty"`
	Packets     int         `json:"packets"`
	PayloadSize int         `json:"payload_size,omitempty"`
	Redundancy  int         `json:"redundancy,omitempty"`
	RateMbps    int         `json:"rate_mbps,omitempty"`
	Quaternary  bool        `json:"quaternary,omitempty"`
	Seed        int64       `json:"seed"`
	Faults      string      `json:"faults,omitempty"`
	Coding      *fec.Config `json:"coding,omitempty"`
	// Receiver selects the decode deployment: "dual" (or absent) for the
	// two-receiver reference compare, "single" for the Double-decker
	// differential decode.
	Receiver string `json:"receiver,omitempty"`
}

type simulateResponse struct {
	Radio          string             `json:"radio"`
	Receiver       string             `json:"receiver"`
	CapacityBits   int                `json:"capacity_bits"`
	AirtimeSeconds float64            `json:"airtime_seconds"`
	Result         core.SessionResult `json:"result"`
	ThroughputBps  float64            `json:"throughput_bps"`
	BER            float64            `json:"ber"`
	LossRate       float64            `json:"loss_rate"`
	// CodedBER is the post-correction payload BER (coded requests only).
	CodedBER float64 `json:"coded_ber,omitempty"`
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req simulateRequest
	if !readJSON(w, r, &req) {
		return
	}
	radio, err := freerider.ParseRadio(req.Radio)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.Distance <= 0 {
		writeError(w, http.StatusBadRequest, "distance %g must be positive metres", req.Distance)
		return
	}
	if req.Packets <= 0 || req.Packets > s.cfg.MaxPackets {
		writeError(w, http.StatusBadRequest, "packets %d outside [1, %d]", req.Packets, s.cfg.MaxPackets)
		return
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"tx_distance", req.TxDistance},
		{"payload_size", float64(req.PayloadSize)},
		{"redundancy", float64(req.Redundancy)},
		{"rate_mbps", float64(req.RateMbps)},
	} {
		if f.v < 0 {
			writeError(w, http.StatusBadRequest, "%s %g must not be negative (0 selects the default)", f.name, f.v)
			return
		}
	}
	if req.Seed == 0 {
		req.Seed = 1
	}
	if req.Faults == "" {
		req.Faults = "none"
	}
	profile, err := freerider.ParseFaultProfile(req.Faults)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.Coding != nil {
		if err := req.Coding.Validate(); err != nil {
			writeError(w, http.StatusBadRequest, "coding: %v", err)
			return
		}
	}
	mode, err := freerider.ParseReceiverMode(req.Receiver)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	cfg := freerider.DefaultConfig(radio, req.Distance)
	cfg.Seed = req.Seed
	cfg.Faults = profile
	cfg.Coding = req.Coding
	cfg.ReceiverMode = mode
	if req.TxDistance > 0 {
		cfg.Link.TxToTag = req.TxDistance
	}
	if req.NLOS {
		cfg.SetNLOS()
	}
	if req.PayloadSize > 0 {
		cfg.PayloadSize = req.PayloadSize
	}
	if req.Redundancy > 0 {
		cfg.Redundancy = req.Redundancy
	}
	if req.RateMbps > 0 {
		cfg.WiFiRateMbps = req.RateMbps
	}
	cfg.Quaternary = req.Quaternary
	cfg.Waveforms = s.waveforms
	sess, err := freerider.NewSession(cfg)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	res, err := sess.RunParallel(req.Packets, s.cfg.Workers)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	s.tally(func(t *tallies) {
		if mode == freerider.SingleReceiver {
			t.ReceiverModes.SingleSimulates++
		} else {
			t.ReceiverModes.DualSimulates++
		}
		t.ReceiverModes.DroppedElements += int64(res.DroppedElements)
	})
	resp := simulateResponse{
		Radio:          freerider.RadioKey(radio),
		Receiver:       mode.String(),
		CapacityBits:   sess.Capacity(),
		AirtimeSeconds: sess.PacketDuration(),
		Result:         res,
		ThroughputBps:  res.ThroughputBps(),
		BER:            res.BER(),
		LossRate:       res.LossRate(),
	}
	if req.Coding != nil {
		resp.CodedBER = res.CodedBER()
		s.tally(func(t *tallies) {
			t.FEC.ChunksDecoded += int64(res.Packets - res.PacketsLost)
			t.FEC.SymbolsCorrected += int64(res.CorrectedSymbols)
			t.FEC.DecodeFailures += int64(res.RSFailures)
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

// ---- /v1/experiments/{name} ------------------------------------------

// The service runs experiments.Registry at CI effort unless the request
// asks for ?full=1 (any strconv.ParseBool spelling; empty means quick).
// The long-running chaos soak and waterfalls stay CLI-only.

type experimentResponse struct {
	Name    string               `json:"name"`
	Title   string               `json:"title"`
	Full    bool                 `json:"full"`
	Seed    int64                `json:"seed"`
	Rows    any                  `json:"rows"`
	Metrics []experiments.Report `json:"metrics,omitempty"`
}

func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	exp, ok := experiments.Lookup(name)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown experiment %q (GET /v1/experiments lists them)", name)
		return
	}
	q := r.URL.Query()
	full := false
	if v := q.Get("full"); v != "" {
		parsed, err := strconv.ParseBool(v)
		if err != nil {
			writeError(w, http.StatusBadRequest, "full: %v", err)
			return
		}
		full = parsed
	}
	seed := int64(1)
	if v := q.Get("seed"); v != "" {
		parsed, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "seed: %v", err)
			return
		}
		seed = parsed
	}
	profile, err := freerider.ParseFaultProfile(valueOr(q.Get("faults"), "none"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	opt := experiments.QuickOptions()
	if full {
		opt = experiments.DefaultOptions()
	}
	opt.Seed = seed
	opt.Workers = s.cfg.Workers
	opt.Faults = profile
	collector := &experiments.Collector{}
	opt.Obs = collector

	rows, err := exp.Run(opt, full)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%s: %v", name, err)
		return
	}
	writeJSON(w, http.StatusOK, experimentResponse{
		Name: name, Title: exp.Title, Full: full, Seed: seed,
		Rows: rows, Metrics: collector.Reports(),
	})
}

func (s *Server) handleExperimentList(w http.ResponseWriter, _ *http.Request) {
	type item struct {
		Name  string `json:"name"`
		Title string `json:"title"`
	}
	items := make([]item, len(experiments.Registry))
	for i, e := range experiments.Registry {
		items[i] = item{e.Name, e.Title}
	}
	writeJSON(w, http.StatusOK, map[string]any{"experiments": items})
}

func valueOr(v, def string) string {
	if v == "" {
		return def
	}
	return v
}

// ---- /healthz ---------------------------------------------------------

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"uptime_seconds": time.Since(s.start).Seconds(),
	})
}
