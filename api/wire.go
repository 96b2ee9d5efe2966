package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
)

// This file holds the only hand-written JSON in the repository: the
// codec of the three hot responses (and the batch that wraps the window
// one). The encoders write exactly the bytes encoding/json writes for
// the same value, so the wire format is unchanged and any other client
// or server interoperates. The decoder reads exactly those bytes in one
// pass and hands any other body to encoding/json, so it accepts and
// decodes what json.Unmarshal does; the tests hold both to it. Every
// other type goes through encoding/json.

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

// decodeJSON parses body into out, which must point to a zero value,
// the way json.Unmarshal does: a truncated body or trailing data is an
// error, never a short answer. A hot response as the encoders above
// write it takes the strict reader; every other body goes to
// encoding/json, which defines the answer.
func decodeJSON(body []byte, out any) error {
	if decodeStrict(body, out) {
		return nil
	}
	return json.Unmarshal(body, out)
}

// decodeStrict decodes body into out if it is exactly what appendJSON
// writes for out's type, and reports whether it was. On false, out is
// untouched.
func decodeStrict(body []byte, out any) bool {
	switch out := out.(type) {
	case *WindowResponse:
		return readStrict(body, out, (*strictReader).window)
	case *NearestResponse:
		return readStrict(body, out, (*strictReader).nearest)
	case *IncidentResponse:
		return readStrict(body, out, (*strictReader).incident)
	case *BatchResponse:
		return readStrict(body, out, (*strictReader).batch)
	}
	return false
}

// readStrict reads one value and the encoder's trailing newline into a
// local, and stores it in out only if the whole body was read.
func readStrict[T any](body []byte, out *T, read func(*strictReader, *T)) bool {
	r := strictReader{b: body}
	var v T
	read(&r, &v)
	r.lit("\n")
	if r.bad || r.i != len(r.b) {
		return false
	}
	*out = v
	return true
}

// strictReader reads the encoders' layout and nothing else: members in
// their order, no whitespace, integers with no leading zero and no -0,
// cache only as "hit" or "miss". At the first byte that differs it sets
// bad and empties b, so every later read fails and every loop ends.
// Whatever it accepts is valid JSON that json.Unmarshal decodes to the
// same value.
type strictReader struct {
	b   []byte
	i   int
	bad bool
}

func (r *strictReader) fail() { r.b, r.i, r.bad = nil, 0, true }

// eat consumes s if it comes next.
func (r *strictReader) eat(s string) bool {
	if len(s) == 1 { // the common case, without a call
		if r.i >= len(r.b) || r.b[r.i] != s[0] {
			return false
		}
		r.i++
		return true
	}
	if len(r.b)-r.i < len(s) || string(r.b[r.i:r.i+len(s)]) != s {
		return false
	}
	r.i += len(s)
	return true
}

// lit consumes s, which must come next.
func (r *strictReader) lit(s string) {
	if !r.eat(s) {
		r.fail()
	}
}

// num reads key, then an integer of at most limit, or at least
// -limit-1 when signed, and returns it in two's complement. The digit
// run has no leading zero, and -0 is not strict.
func (r *strictReader) num(key string, limit uint64, signed bool) uint64 {
	b, i := r.b, r.i
	// Every key has at least four bytes. A key of up to eight compares
	// as its first and last four bytes, two words, without the call a
	// string comparison makes.
	n := len(key)
	if len(b)-i < n || word(b[i:]) != word(key) || word(b[i+n-4:]) != word(key[n-4:]) ||
		n > 8 && string(b[i+4:i+n-4]) != key[4:n-4] {
		r.fail()
		return 0
	}
	i += n
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
		limit++
	}
	start := i
	var mag uint64
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		mag = mag*10 + uint64(b[i]-'0')
	}
	// Equal-length digit runs compare as numbers, so the check for a
	// 20-digit run that wrapped needs no division.
	digits := b[start:i]
	if n := len(digits); n == 0 || n > 1 && digits[0] == '0' || neg && (mag == 0 || !signed) ||
		n > 20 || n == 20 && string(digits) > "18446744073709551615" || mag > limit {
		r.fail()
		return 0
	}
	r.i = i
	if neg {
		return -mag
	}
	return mag
}

// word is the little-endian value of the first four bytes of s.
func word[T string | []byte](s T) uint32 {
	_ = s[3]
	return uint32(s[0]) | uint32(s[1])<<8 | uint32(s[2])<<16 | uint32(s[3])<<24
}

func (r *strictReader) uint(key string, limit uint64) uint64 { return r.num(key, limit, false) }

func (r *strictReader) int(key string, limit int64) int64 {
	return int64(r.num(key, uint64(limit), true))
}

// coords reads what appendCoords writes.
func (r *strictReader) coords(x1, y1, x2, y2 *int32) {
	*x1 = int32(r.int(`"x1":`, math.MaxInt32))
	*y1 = int32(r.int(`,"y1":`, math.MaxInt32))
	*x2 = int32(r.int(`,"x2":`, math.MaxInt32))
	*y2 = int32(r.int(`,"y2":`, math.MaxInt32))
	r.lit("}")
}

// wireSegmentBytes is the shortest array element the server writes; it
// caps the pre-sizing a body of a given length can ask for.
const wireSegmentBytes = len(`{"id":0,"x1":0,"y1":0,"x2":0,"y2":0},`)

// strictArray reads what appendArray writes: null is a nil slice, []
// an empty non-nil one. hint, the count member before the array,
// pre-sizes it.
func strictArray[T any](r *strictReader, hint int, elem func(*strictReader, *T)) []T {
	if r.eat("null") {
		return nil
	}
	r.lit("[")
	s := make([]T, 0, max(0, min(hint, (len(r.b)-r.i)/wireSegmentBytes)))
	if r.eat("]") {
		return s
	}
	for {
		var zero T
		s = append(s, zero)
		elem(r, &s[len(s)-1])
		if !r.eat(",") {
			break
		}
	}
	r.lit("]")
	return s
}

func (r *strictReader) segment(s *SegmentJSON) {
	s.ID = uint32(r.uint(`{"id":`, math.MaxUint32))
	r.lit(",")
	r.coords(&s.X1, &s.Y1, &s.X2, &s.Y2)
}

// hit reads dist_sq as encoding/json does: a JSON number, then
// strconv.ParseFloat of its text.
func (r *strictReader) hit(h *NearestHitJSON) {
	h.ID = uint32(r.uint(`{"id":`, math.MaxUint32))
	r.lit(`,"dist_sq":`)
	start := r.i
	for r.i < len(r.b) && strings.IndexByte("+-.0123456789Ee", r.b[r.i]) >= 0 {
		r.i++
	}
	var err error
	text := r.b[start:r.i]
	if h.DistSq, err = strconv.ParseFloat(string(text), 64); err != nil || !json.Valid(text) {
		r.fail()
	}
	r.lit(",")
	r.coords(&h.X1, &h.Y1, &h.X2, &h.Y2)
}

// tail reads what appendTail writes.
func (r *strictReader) tail(s *StatsJSON, cache *string) {
	s.DiskAccesses = r.uint(`,"stats":{"disk_accesses":`, math.MaxUint64)
	s.SegComps = r.uint(`,"seg_comps":`, math.MaxUint64)
	s.NodeComps = r.uint(`,"node_comps":`, math.MaxUint64)
	s.PoolHits = r.uint(`,"pool_hits":`, math.MaxUint64)
	s.PoolRequests = r.uint(`,"pool_requests":`, math.MaxUint64)
	s.WallMicros = r.int(`,"wall_micros":`, math.MaxInt64)
	r.lit("}")
	switch {
	case r.eat(`,"cache":"hit"`):
		*cache = "hit"
	case r.eat(`,"cache":"miss"`):
		*cache = "miss"
	}
	r.lit("}")
}

func (r *strictReader) window(v *WindowResponse) {
	r.lit(`{"window":{`)
	r.coords(&v.Window.X1, &v.Window.Y1, &v.Window.X2, &v.Window.Y2)
	v.Count = int(r.int(`,"count":`, math.MaxInt))
	r.lit(`,"segments":`)
	v.Segments = strictArray(r, v.Count, (*strictReader).segment)
	r.tail(&v.Stats, &v.Cache)
}

func (r *strictReader) incident(v *IncidentResponse) {
	v.X = int32(r.int(`{"x":`, math.MaxInt32))
	v.Y = int32(r.int(`,"y":`, math.MaxInt32))
	v.Count = int(r.int(`,"count":`, math.MaxInt))
	r.lit(`,"segments":`)
	v.Segments = strictArray(r, v.Count, (*strictReader).segment)
	r.tail(&v.Stats, &v.Cache)
}

func (r *strictReader) nearest(v *NearestResponse) {
	v.X = int32(r.int(`{"x":`, math.MaxInt32))
	v.Y = int32(r.int(`,"y":`, math.MaxInt32))
	v.K = int(r.int(`,"k":`, math.MaxInt))
	r.lit(`,"results":`)
	v.Results = strictArray(r, v.K, (*strictReader).hit)
	r.tail(&v.Stats, &v.Cache)
}

func (r *strictReader) batch(v *BatchResponse) {
	r.lit(`{"queries":`)
	v.Queries = strictArray(r, 0, (*strictReader).window)
	r.lit("}")
}
