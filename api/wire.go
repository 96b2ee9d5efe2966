package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// This file holds the only hand-written JSON in the repository: the
// codec of the three hot responses (and the batch that wraps the window
// one). The encoders write exactly the bytes encoding/json writes for
// the same value and the decoder accepts exactly what encoding/json
// accepts into the same struct, so the wire format is unchanged and any
// other client or server interoperates; the tests hold both to it.
// Every other type goes through encoding/json.

// wireBufs recycles the server's encode buffers and the client's
// response-body buffers. A buffer one huge batch grew is dropped
// instead of pinned.
var wireBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBuf = 1 << 20

func putWireBuf(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBuf {
		wireBufs.Put(buf)
	}
}

// appendJSON appends v as json.Encoder.Encode writes it, newline
// included. Only a float that is not finite makes it fail.
func appendJSON(b []byte, v any) ([]byte, error) {
	var err error
	switch v := v.(type) {
	case *WindowResponse:
		b = appendWindowResponse(b, v)
	case *NearestResponse:
		b, err = appendNearestResponse(b, v)
	case *IncidentResponse:
		b = appendIncidentResponse(b, v)
	case *BatchResponse:
		b = append(b, `{"queries":`...)
		b = appendArray(b, v.Queries, appendWindowResponse)
		b = append(b, '}')
	default:
		var enc []byte
		enc, err = json.Marshal(v)
		b = append(b, enc...)
	}
	return append(b, '\n'), err
}

func appendInt(b []byte, key string, v int64) []byte {
	return strconv.AppendInt(append(b, key...), v, 10)
}

func appendUint(b []byte, key string, v uint64) []byte {
	return strconv.AppendUint(append(b, key...), v, 10)
}

// appendArray writes s as encoding/json does: null for a nil slice.
func appendArray[T any](b []byte, s []T, elem func([]byte, *T) []byte) []byte {
	if s == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i := range s {
		if i > 0 {
			b = append(b, ',')
		}
		b = elem(b, &s[i])
	}
	return append(b, ']')
}

// appendCoords closes an object with the four coordinate members.
func appendCoords(b []byte, x1, y1, x2, y2 int32) []byte {
	b = appendInt(b, `"x1":`, int64(x1))
	b = appendInt(b, `,"y1":`, int64(y1))
	b = appendInt(b, `,"x2":`, int64(x2))
	b = appendInt(b, `,"y2":`, int64(y2))
	return append(b, '}')
}

func appendSegment(b []byte, s *SegmentJSON) []byte {
	b = appendUint(b, `{"id":`, uint64(s.ID))
	return appendCoords(append(b, ','), s.X1, s.Y1, s.X2, s.Y2)
}

// appendTail writes the members every hot response ends with, and
// closes it.
func appendTail(b []byte, s *StatsJSON, cache string) []byte {
	b = appendUint(b, `,"stats":{"disk_accesses":`, s.DiskAccesses)
	b = appendUint(b, `,"seg_comps":`, s.SegComps)
	b = appendUint(b, `,"node_comps":`, s.NodeComps)
	b = appendUint(b, `,"pool_hits":`, s.PoolHits)
	b = appendUint(b, `,"pool_requests":`, s.PoolRequests)
	b = appendInt(b, `,"wall_micros":`, s.WallMicros)
	b = append(b, '}')
	switch cache {
	case "": // omitempty
	case "hit", "miss":
		b = append(append(append(b, `,"cache":"`...), cache...), '"')
	default: // nothing the server sets; it may need escaping
		q, _ := json.Marshal(cache)
		b = append(append(b, `,"cache":`...), q...)
	}
	return append(b, '}')
}

func appendWindowResponse(b []byte, r *WindowResponse) []byte {
	b = appendCoords(append(b, `{"window":{`...), r.Window.X1, r.Window.Y1, r.Window.X2, r.Window.Y2)
	b = appendInt(b, `,"count":`, int64(r.Count))
	b = appendArray(append(b, `,"segments":`...), r.Segments, appendSegment)
	return appendTail(b, &r.Stats, r.Cache)
}

func appendIncidentResponse(b []byte, r *IncidentResponse) []byte {
	b = appendInt(b, `{"x":`, int64(r.X))
	b = appendInt(b, `,"y":`, int64(r.Y))
	b = appendInt(b, `,"count":`, int64(r.Count))
	b = appendArray(append(b, `,"segments":`...), r.Segments, appendSegment)
	return appendTail(b, &r.Stats, r.Cache)
}

func appendNearestResponse(b []byte, r *NearestResponse) ([]byte, error) {
	var err error
	b = appendInt(b, `{"x":`, int64(r.X))
	b = appendInt(b, `,"y":`, int64(r.Y))
	b = appendInt(b, `,"k":`, int64(r.K))
	b = appendArray(append(b, `,"results":`...), r.Results, func(b []byte, h *NearestHitJSON) []byte {
		b = appendUint(b, `{"id":`, uint64(h.ID))
		b = append(b, `,"dist_sq":`...)
		// encoding/json's float format: %e outside [1e-6, 1e21) with a
		// two-digit exponent's leading zero dropped, else %f.
		f, format := h.DistSq, byte('f')
		if math.IsNaN(f) || math.IsInf(f, 0) {
			err = fmt.Errorf("api: dist_sq %v of result %d is not a finite number", f, h.ID)
		}
		if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
			format = 'e'
		}
		b = strconv.AppendFloat(b, f, format, -1, 64)
		if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
		return appendCoords(append(b, ','), h.X1, h.Y1, h.X2, h.Y2)
	})
	return appendTail(b, &r.Stats, r.Cache), err
}

// decodeJSON parses body into out the way json.Unmarshal does: a
// truncated body or trailing data is an error, never a short answer.
func decodeJSON(body []byte, out any) error {
	switch out.(type) {
	case *WindowResponse, *NearestResponse, *IncidentResponse, *BatchResponse:
	default:
		return json.Unmarshal(body, out)
	}
	d := wireDec{b: body}
	d.ws()
	d.value(out)
	if d.ws(); d.err == nil && d.i < len(d.b) {
		d.fail("data after the top-level value")
	}
	return d.err
}

// wireDec is a pull decoder over one whole response body. The first
// error sticks and moves the cursor to the end, so every loop over it
// terminates without checking.
type wireDec struct {
	b   []byte
	i   int
	err error
}

func (d *wireDec) fail(msg string) {
	if d.err == nil {
		d.err = fmt.Errorf("api: decode response: %s at offset %d of %d", msg, d.i, len(d.b))
	}
	d.i = len(d.b)
}

func (d *wireDec) ws() {
	for d.i < len(d.b) && d.b[d.i] <= ' ' && (d.b[d.i] == ' ' || d.b[d.i] == '\n' || d.b[d.i] == '\t' || d.b[d.i] == '\r') {
		d.i++
	}
}

func (d *wireDec) at(c byte) bool { return d.i < len(d.b) && d.b[d.i] == c }

// eat skips whitespace and consumes c if it is next.
func (d *wireDec) eat(c byte) bool {
	d.ws()
	if d.at(c) {
		d.i++
		return true
	}
	return false
}

// null consumes a null: encoding/json makes it a no-op for every member
// but a slice, which it sets to nil.
func (d *wireDec) null() bool {
	if !d.at('n') {
		return false
	}
	if bytes.HasPrefix(d.b[d.i:], []byte("null")) {
		d.i += len("null")
	} else {
		d.fail("invalid literal")
	}
	return true
}

// next steps through an array or object: with first set it consumes
// open, otherwise the separating comma, and reports whether another
// element follows, leaving the cursor on it.
func (d *wireDec) next(first bool, open, close byte) bool {
	if first && !d.eat(open) {
		d.fail("unexpected value type")
	}
	if d.eat(close) {
		return false
	}
	if !first && !d.eat(',') {
		d.fail("expected a comma or a closing bracket")
	}
	d.ws()
	return d.err == nil
}

// str decodes a string. Plain ASCII aliases the body; anything else is
// unquoted by encoding/json, so escapes and invalid UTF-8 come out as
// it defines them.
func (d *wireDec) str() []byte {
	start, plain := d.i, true
	if !d.at('"') {
		d.fail("expected a string")
	}
	for d.i++; d.i < len(d.b); d.i++ {
		switch c := d.b[d.i]; {
		case c == '"' && plain:
			d.i++
			return d.b[start+1 : d.i-1]
		case c == '"':
			var s string
			d.i++
			if err := json.Unmarshal(d.b[start:d.i], &s); err != nil {
				d.fail(err.Error())
			}
			return []byte(s)
		case c == '\\':
			d.i++ // the escaped byte cannot close the string
			plain = false
		case c < 0x20 || c >= 0x80:
			plain = false
		}
	}
	d.fail("unterminated string")
	return nil
}

// uint decodes an integer literal of at most max; a fraction or an
// exponent is an error, as it is to encoding/json for an integer field.
func (d *wireDec) uint(max uint64) (v uint64) {
	start := d.i
	for ; d.i < len(d.b) && d.b[d.i]-'0' <= 9; d.i++ {
		digit := uint64(d.b[d.i] - '0')
		if v > (max-digit)/10 {
			d.fail("integer out of range")
		}
		v = v*10 + digit
	}
	if n := d.i - start; n == 0 || n > 1 && d.b[start] == '0' || d.at('.') || d.at('e') || d.at('E') {
		d.fail("not an integer")
	}
	return v
}

func (d *wireDec) int(min, max int64) int64 {
	if d.at('-') {
		d.i++
		return -int64(d.uint(uint64(-min))) // math.MinInt64 wraps to itself, twice
	}
	return int64(d.uint(uint64(max)))
}

// skip discards one value of any type and nesting. Only a member this
// client does not know takes this path, so encoding/json validates it.
func (d *wireDec) skip() {
	var raw json.RawMessage
	dec := json.NewDecoder(bytes.NewReader(d.b[d.i:]))
	if err := dec.Decode(&raw); err != nil {
		d.fail(err.Error())
		return
	}
	d.i += int(dec.InputOffset())
}

// sized is an array member with the count member that announces its
// length, which pre-sizes it.
type sized[T any] struct {
	s *[]T
	n *int
}

// wireSegmentBytes is the shortest array element the server writes; it
// caps the pre-sizing a body of a given length can ask for.
const wireSegmentBytes = len(`{"id":0,"x1":0,"y1":0,"x2":0,"y2":0},`)

// decodeArray decodes an array into s by encoding/json's rules: null
// makes it nil, an empty array empty but non-nil, and elements already
// in s are decoded over, not zeroed.
func decodeArray[T any](d *wireDec, s []T, hint int) []T {
	if d.null() {
		return nil
	}
	if hint = min(hint, (len(d.b)-d.i)/wireSegmentBytes); s == nil && hint > 0 {
		s = make([]T, 0, hint)
	}
	i := 0
	for ok := d.next(true, '[', ']'); ok; ok = d.next(false, '[', ']') {
		if i >= cap(s) {
			s = append(s[:i], *new(T))
		} else if i >= len(s) {
			s = s[:i+1]
		}
		d.value(&s[i])
		i++
	}
	if i == 0 {
		return []T{}
	}
	return s[:i]
}

var (
	rectNames     = []string{"x1", "y1", "x2", "y2"}
	segmentNames  = []string{"id", "x1", "y1", "x2", "y2"}
	hitNames      = []string{"id", "dist_sq", "x1", "y1", "x2", "y2"}
	statsNames    = []string{"disk_accesses", "seg_comps", "node_comps", "pool_hits", "pool_requests", "wall_micros"}
	windowNames   = []string{"window", "count", "segments", "stats", "cache"}
	incidentNames = []string{"x", "y", "count", "segments", "stats", "cache"}
	nearestNames  = []string{"x", "y", "k", "results", "stats", "cache"}
	batchNames    = []string{"queries"}
)

// members fills m with pointers to the fields of the struct v points to
// and returns their wire names in the same order, or nil when v is not
// one of the hand-decoded structs.
func members(v any, m *[6]any) []string {
	switch v := v.(type) {
	case *RectJSON:
		*m = [6]any{&v.X1, &v.Y1, &v.X2, &v.Y2}
		return rectNames
	case *SegmentJSON:
		*m = [6]any{&v.ID, &v.X1, &v.Y1, &v.X2, &v.Y2}
		return segmentNames
	case *NearestHitJSON:
		*m = [6]any{&v.ID, &v.DistSq, &v.X1, &v.Y1, &v.X2, &v.Y2}
		return hitNames
	case *StatsJSON:
		*m = [6]any{&v.DiskAccesses, &v.SegComps, &v.NodeComps, &v.PoolHits, &v.PoolRequests, &v.WallMicros}
		return statsNames
	case *WindowResponse:
		*m = [6]any{&v.Window, &v.Count, &sized[SegmentJSON]{&v.Segments, &v.Count}, &v.Stats, &v.Cache}
		return windowNames
	case *IncidentResponse:
		*m = [6]any{&v.X, &v.Y, &v.Count, &sized[SegmentJSON]{&v.Segments, &v.Count}, &v.Stats, &v.Cache}
		return incidentNames
	case *NearestResponse:
		*m = [6]any{&v.X, &v.Y, &v.K, &sized[NearestHitJSON]{&v.Results, &v.K}, &v.Stats, &v.Cache}
		return nearestNames
	case *BatchResponse:
		*m = [6]any{&v.Queries}
		return batchNames
	}
	return nil
}

// value decodes one value into the field or struct v points to.
func (d *wireDec) value(v any) {
	switch v := v.(type) {
	case *sized[SegmentJSON]:
		*v.s = decodeArray(d, *v.s, *v.n)
		return
	case *sized[NearestHitJSON]:
		*v.s = decodeArray(d, *v.s, *v.n)
		return
	case *[]WindowResponse:
		*v = decodeArray(d, *v, 0)
		return
	}
	if d.null() {
		return
	}
	switch v := v.(type) {
	case *int32:
		*v = int32(d.int(math.MinInt32, math.MaxInt32))
	case *int:
		*v = int(d.int(math.MinInt, math.MaxInt))
	case *int64:
		*v = d.int(math.MinInt64, math.MaxInt64)
	case *uint32:
		*v = uint32(d.uint(math.MaxUint32))
	case *uint64:
		*v = d.uint(math.MaxUint64)
	case *float64:
		start := d.i
		for d.i < len(d.b) && strings.IndexByte("+-.0123456789Ee", d.b[d.i]) >= 0 {
			d.i++
		}
		var err error
		if text := d.b[start:d.i]; !json.Valid(text) {
			d.fail("invalid number")
		} else if *v, err = strconv.ParseFloat(string(text), 64); err != nil {
			d.fail("number out of range")
		}
	case *string:
		*v = string(d.str())
	default:
		var m [6]any
		names := members(v, &m)
		for n := 0; d.next(n == 0, '{', '}'); n++ {
			k := d.str()
			if !d.eat(':') {
				d.fail("expected a colon")
			}
			d.ws()
			// encoding/json's rule: the exact name, else the first that
			// matches under Unicode case folding. The server writes the
			// members in order, so the n-th name is the first guess.
			i := n
			if n >= len(names) || string(k) != names[n] {
				i = slices.IndexFunc(names, func(n string) bool { return string(k) == n })
			}
			if i < 0 {
				i = slices.IndexFunc(names, func(n string) bool { return bytes.EqualFold(k, []byte(n)) })
			}
			if i < 0 {
				d.skip()
			} else {
				d.value(m[i])
			}
		}
	}
}
