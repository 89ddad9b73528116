package api

import (
	"bytes"
	"encoding/json"
	"io"
	"strconv"
	"unicode/utf8"
)

// This file is the wire boundary's decoder. The bodies that dominate
// traffic — query batches, their answers and trajectory loads — are mostly
// numbers, and encoding/json spends most of its time on reflection and on
// scanning every value twice. The four hot types therefore have a
// one-pass, reflection-free parser over a strict subset of JSON (the fast
// grammar):
//
//   - objects with exact-case known keys, each at most once;
//   - strings without escapes, control bytes or invalid UTF-8;
//   - numbers in JSON's grammar, parsed with strconv exactly as
//     encoding/json parses them (so an integer field declines 1.0 and 1e2);
//   - true and false, but no null.
//
// Anything outside it — including every malformed body — is declined and
// decoded by encoding/json instead, so values and error texts are
// encoding/json's by construction. FuzzDecodeJSON holds the fast path to
// that oracle.

// DecodeJSON decodes the first JSON value of data into v exactly as
// json.NewDecoder(bytes.NewReader(data)).Decode(v) does, with
// DisallowUnknownFields when strict; bytes after the value are ignored.
// A *Query, *QueryResponse, *LoadRequest or *Trajectory holding its zero
// value decodes in one pass when data is in the fast grammar.
func DecodeJSON(data []byte, v any, strict bool) error {
	if decodeFast(data, v, false) {
		return nil
	}
	return decodeStream(bytes.NewReader(data), v, strict)
}

// ReadJSON reads r to its end and decodes the first value like DecodeJSON.
// When reading fails, the bytes read and then the read error are handed to
// encoding/json's streaming decoder, so the outcome is that of
// json.NewDecoder(r).Decode(v): a value complete before the failure still
// decodes, and otherwise the read error (an *http.MaxBytesError, a
// canceled context) comes back unchanged.
func ReadJSON(r io.Reader, v any, strict bool) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return decodeStream(io.MultiReader(bytes.NewReader(data), errReader{err}), v, strict)
	}
	return DecodeJSON(data, v, strict)
}

func decodeStream(r io.Reader, v any, strict bool) error {
	dec := json.NewDecoder(r)
	if strict {
		dec.DisallowUnknownFields()
	}
	return dec.Decode(v)
}

type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// DecodeRecord decodes one line of an NDJSON stream on the fast path: it
// reports whether line holds exactly one fast-grammar value, surrounded
// only by whitespace, of one of the types DecodeJSON names, and has then
// decoded it into v. On false v is untouched, and the caller decodes the
// line with encoding/json.
func DecodeRecord(line []byte, v any) bool {
	return decodeFast(line, v, true)
}

// decodeFast parses the first value of data into v on the fast path,
// requiring only whitespace after it when whole. It stores into v only on
// success, and only when v holds its zero value: encoding/json merges into
// a non-zero target, which the fast path does not reproduce.
func decodeFast(data []byte, v any, whole bool) bool {
	d := fastDecoder{data: data}
	switch v := v.(type) {
	case *Query:
		var x Query
		if v != nil && v.Specs == nil && v.TimeoutMS == 0 && d.parse(func() { d.query(&x) }, whole) {
			*v = x
			return true
		}
	case *QueryResponse:
		var x QueryResponse
		if v != nil && v.Results == nil && v.TookMS == 0 && d.parse(func() { d.queryResponse(&x) }, whole) {
			*v = x
			return true
		}
	case *LoadRequest:
		var x LoadRequest
		if v != nil && v.Trajectories == nil && d.parse(func() { d.loadRequest(&x) }, whole) {
			*v = x
			return true
		}
	case *Trajectory:
		var x Trajectory
		if v != nil && v.Points == nil && d.parse(func() { d.trajectoryInto(&x) }, whole) {
			*v = x
			return true
		}
	}
	return false
}

// parse runs value and reports whether it parsed, followed only by
// whitespace when whole.
func (d *fastDecoder) parse(value func(), whole bool) bool {
	value()
	if whole {
		d.peek()
		if d.off != len(d.data) {
			return false
		}
	}
	return !d.bad
}

// fastDecoder is a cursor over one body. The first byte outside the fast
// grammar sets bad; every loop stops on it, and the partial value is
// discarded.
type fastDecoder struct {
	data []byte
	off  int
	bad  bool
}

// peek skips whitespace and returns the next byte, 0 at the end of data
// (where no caller expects a NUL byte either).
func (d *fastDecoder) peek() byte {
	for d.off < len(d.data) {
		switch c := d.data[d.off]; c {
		case ' ', '\t', '\n', '\r':
			d.off++
		default:
			return c
		}
	}
	return 0
}

// expect consumes c as the next token, or marks the decode bad.
func (d *fastDecoder) expect(c byte) {
	if d.peek() != c {
		d.bad = true
		return
	}
	d.off++
}

// more consumes the separator after an element of an array or object and
// reports whether another element follows; it consumes the closing byte
// and returns false at the end.
func (d *fastDecoder) more(closing byte) bool {
	switch d.peek() {
	case ',':
		d.off++
		return true
	case closing:
		d.off++
	default:
		d.bad = true
	}
	return false
}

// object parses an object. field decodes the value of one key and returns
// a bit identifying the key, or 0 when the key is not in the fast grammar;
// a key seen twice declines.
func (d *fastDecoder) object(field func(key []byte) uint32) {
	d.expect('{')
	if d.bad {
		return
	}
	if d.peek() == '}' {
		d.off++
		return
	}
	var seen uint32
	for {
		key := d.str()
		d.expect(':')
		if d.bad {
			return
		}
		bit := field(key)
		if bit == 0 || seen&bit != 0 {
			d.bad = true
		}
		seen |= bit
		if d.bad || !d.more('}') {
			return
		}
	}
}

// array parses an array, calling elem once per element.
func (d *fastDecoder) array(elem func()) {
	d.expect('[')
	if d.bad {
		return
	}
	if d.peek() == ']' {
		d.off++
		return
	}
	for {
		elem()
		if d.bad || !d.more(']') {
			return
		}
	}
}

// str parses a string and returns its bytes, which alias data.
func (d *fastDecoder) str() []byte {
	d.expect('"')
	if d.bad {
		return nil
	}
	start, ascii := d.off, true
	for ; d.off < len(d.data); d.off++ {
		switch c := d.data[d.off]; {
		case c == '"':
			s := d.data[start:d.off]
			d.off++
			if !ascii && !utf8.Valid(s) {
				d.bad = true // encoding/json substitutes U+FFFD
			}
			return s
		case c == '\\' || c < ' ':
			d.bad = true
			return nil
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	d.bad = true
	return nil
}

func (d *fastDecoder) string() string { return string(d.str()) }

// number parses a number in JSON's grammar and returns its literal.
func (d *fastDecoder) number() []byte {
	d.peek()
	data, i := d.data, d.off
	if i < len(data) && data[i] == '-' {
		i++
	}
	switch {
	case i < len(data) && data[i] == '0':
		i++
	case i < len(data) && data[i]-'1' < 9:
		i = digits(data, i)
	default:
		d.bad = true
		return nil
	}
	if i < len(data) && data[i] == '.' {
		i++
		j := digits(data, i)
		if j == i {
			d.bad = true
		}
		i = j
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		if i++; i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		j := digits(data, i)
		if j == i {
			d.bad = true
		}
		i = j
	}
	lit := data[d.off:i]
	d.off = i
	return lit
}

// digits returns the end of the run of decimal digits at data[i:].
func digits(data []byte, i int) int {
	for i < len(data) && data[i]-'0' < 10 {
		i++
	}
	return i
}

func (d *fastDecoder) float() float64 {
	lit := d.number()
	if d.bad {
		return 0
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		d.bad = true
	}
	return f
}

func (d *fastDecoder) int() int {
	lit := d.number()
	if d.bad {
		return 0
	}
	n, err := strconv.ParseInt(string(lit), 10, strconv.IntSize)
	if err != nil {
		d.bad = true
	}
	return int(n)
}

func (d *fastDecoder) bool() bool {
	d.peek()
	rest := d.data[d.off:]
	switch {
	case bytes.HasPrefix(rest, []byte("true")):
		d.off += len("true")
		return true
	case bytes.HasPrefix(rest, []byte("false")):
		d.off += len("false")
		return false
	}
	d.bad = true
	return false
}

// list parses an array of objects into a fresh slice; [] gives an empty
// non-nil one, as in encoding/json.
func list[T any](d *fastDecoder, parse func(*T)) []T {
	out := []T{}
	d.array(func() {
		out = append(out, *new(T))
		parse(&out[len(out)-1])
	})
	return out
}

// ptr parses an object into a fresh *T, as encoding/json fills a nil
// pointer field.
func ptr[T any](parse func(*T)) *T {
	v := new(T)
	parse(v)
	return v
}

// The parsers below follow the wire types field by field. Each object
// callback returns a distinct bit per known key, which object uses to
// decline a repeated key, and 0 for any other key.

func (d *fastDecoder) query(q *Query) {
	d.object(func(key []byte) (bit uint32) {
		switch string(key) {
		case "specs":
			q.Specs, bit = list(d, d.spec), 1<<0
		case "timeout_ms":
			q.TimeoutMS, bit = d.int(), 1<<1
		}
		return bit
	})
}

func (d *fastDecoder) spec(s *QuerySpec) {
	d.object(func(key []byte) (bit uint32) {
		switch string(key) {
		case "query":
			s.Query, bit = d.trajectory(), 1<<0
		case "k":
			s.K, bit = d.int(), 1<<1
		case "measure":
			s.Measure, bit = d.string(), 1<<2
		case "algorithm":
			s.Algorithm, bit = d.string(), 1<<3
		case "edr_eps":
			s.EDREps, bit = d.float(), 1<<4
		case "lcss_eps":
			s.LCSSEps, bit = d.float(), 1<<5
		case "cdtw_band":
			s.CDTWBand, bit = d.float(), 1<<6
		case "pos_delay":
			s.POSDelay, bit = d.int(), 1<<7
		case "bound":
			b := d.float()
			s.Bound, bit = &b, 1<<8
		case "allow_degraded":
			s.AllowDegraded, bit = d.bool(), 1<<9
		case "ann":
			s.ANN, bit = ptr(d.annSpec), 1<<10
		case "filter":
			s.Filter, bit = ptr(d.rect), 1<<11
		case "distinct":
			s.Distinct, bit = d.bool(), 1<<12
		case "offset":
			s.Offset, bit = d.int(), 1<<13
		case "limit":
			s.Limit, bit = d.int(), 1<<14
		}
		return bit
	})
}

func (d *fastDecoder) annSpec(a *ANNSpec) {
	d.object(func(key []byte) (bit uint32) {
		switch string(key) {
		case "candidates":
			a.Candidates, bit = d.int(), 1<<0
		case "probes":
			a.Probes, bit = d.int(), 1<<1
		}
		return bit
	})
}

func (d *fastDecoder) rect(r *Rect) {
	d.object(func(key []byte) (bit uint32) {
		switch string(key) {
		case "min_x":
			r.MinX, bit = d.float(), 1<<0
		case "min_y":
			r.MinY, bit = d.float(), 1<<1
		case "max_x":
			r.MaxX, bit = d.float(), 1<<2
		case "max_y":
			r.MaxY, bit = d.float(), 1<<3
		}
		return bit
	})
}

func (d *fastDecoder) loadRequest(l *LoadRequest) {
	d.object(func(key []byte) (bit uint32) {
		if string(key) == "trajectories" {
			l.Trajectories, bit = list(d, d.trajectoryInto), 1<<0
		}
		return bit
	})
}

func (d *fastDecoder) trajectory() (t Trajectory) {
	d.trajectoryInto(&t)
	return t
}

func (d *fastDecoder) trajectoryInto(t *Trajectory) {
	d.object(func(key []byte) (bit uint32) {
		if string(key) == "points" {
			t.Points, bit = d.points(), 1<<0
		}
		return bit
	})
}

// points parses [[x, y, t], ...]. A pre-scan of the brackets sizes one
// backing array for all the coordinates, and each point is a
// capacity-capped window of it, so appending to one point cannot overwrite
// the next. The pre-scan is only a capacity hint: where it miscounts, the
// array regrows and earlier windows keep the old one, whose values never
// change again. Empty arrays, inner or outer, decode to empty non-nil
// slices, as in encoding/json.
func (d *fastDecoder) points() [][]float64 {
	if d.peek() != '[' {
		d.bad = true
		return nil
	}
	n, coords := countPoints(d.data[d.off:])
	pts := make([][]float64, 0, n)
	flat := make([]float64, 0, coords)
	d.array(func() {
		lo := len(flat)
		d.array(func() { flat = append(flat, d.float()) })
		pts = append(pts, flat[lo:len(flat):len(flat)])
	})
	return pts
}

// countPoints estimates the points and coordinates of the array that data
// starts with from its brackets and commas.
func countPoints(data []byte) (points, coords int) {
	depth := 0
	for _, c := range data {
		switch c {
		case '[':
			if depth++; depth == 2 {
				points++
				coords++
			}
		case ']':
			if depth--; depth == 0 {
				return points, coords
			}
		case ',':
			if depth == 2 {
				coords++
			}
		}
	}
	return points, coords
}

func (d *fastDecoder) queryResponse(r *QueryResponse) {
	d.object(func(key []byte) (bit uint32) {
		switch string(key) {
		case "results":
			r.Results, bit = list(d, d.queryResult), 1<<0
		case "took_ms":
			r.TookMS, bit = d.float(), 1<<1
		}
		return bit
	})
}

func (d *fastDecoder) queryResult(r *QueryResult) {
	d.object(func(key []byte) (bit uint32) {
		switch string(key) {
		case "matches":
			r.Matches, bit = list(d, d.match), 1<<0
		case "total":
			r.Total, bit = d.int(), 1<<1
		case "cached":
			r.Cached, bit = d.bool(), 1<<2
		case "error":
			r.Error, bit = ptr(d.error), 1<<3
		case "partial":
			r.Partial, bit = ptr(d.partial), 1<<4
		case "degraded":
			r.Degraded, bit = ptr(d.degraded), 1<<5
		case "took_ms":
			r.TookMS, bit = d.float(), 1<<6
		}
		return bit
	})
}

func (d *fastDecoder) match(m *Match) {
	d.object(func(key []byte) (bit uint32) {
		switch string(key) {
		case "traj_id":
			m.TrajID, bit = d.int(), 1<<0
		case "start":
			m.Start, bit = d.int(), 1<<1
		case "end":
			m.End, bit = d.int(), 1<<2
		case "dist":
			m.Dist, bit = d.float(), 1<<3
		case "sim":
			m.Sim, bit = d.float(), 1<<4
		case "explored":
			m.Explored, bit = d.int(), 1<<5
		}
		return bit
	})
}

func (d *fastDecoder) error(e *Error) {
	d.object(func(key []byte) (bit uint32) {
		switch string(key) {
		case "code":
			e.Code, bit = Code(d.string()), 1<<0
		case "message":
			e.Message, bit = d.string(), 1<<1
		case "retry_after_ms":
			e.RetryAfterMS, bit = d.int(), 1<<2
		}
		return bit
	})
}

func (d *fastDecoder) partial(p *Partial) {
	d.object(func(key []byte) (bit uint32) {
		switch string(key) {
		case "nodes_total":
			p.NodesTotal, bit = d.int(), 1<<0
		case "nodes_failed":
			p.NodesFailed, bit = d.int(), 1<<1
		case "failures":
			p.Failures, bit = list(d, d.nodeFailure), 1<<2
		}
		return bit
	})
}

func (d *fastDecoder) nodeFailure(f *NodeFailure) {
	d.object(func(key []byte) (bit uint32) {
		switch string(key) {
		case "node":
			f.Node, bit = d.string(), 1<<0
		case "error":
			d.error(&f.Err)
			bit = 1 << 1
		}
		return bit
	})
}

func (d *fastDecoder) degraded(g *Degraded) {
	d.object(func(key []byte) (bit uint32) {
		switch string(key) {
		case "reason":
			g.Reason, bit = d.string(), 1<<0
		case "from":
			g.From, bit = d.string(), 1<<1
		case "to":
			g.To, bit = d.string(), 1<<2
		}
		return bit
	})
}
