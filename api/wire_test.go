package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// wireSamples returns pointers to values of the four hand-coded types:
// the edge cases of every field, then n seeded random ones of each.
func wireSamples(n int) []any {
	rng := rand.New(rand.NewSource(1992))
	coord := func() int32 { return int32(rng.Uint32()) } // both signs
	stats := func() StatsJSON {
		return StatsJSON{rng.Uint64(), rng.Uint64() >> 30, uint64(rng.Intn(1000)), 0, math.MaxUint64, rng.Int63() - rng.Int63()}
	}
	segments := func() []SegmentJSON {
		s := make([]SegmentJSON, rng.Intn(40))
		for i := range s {
			s[i] = SegmentJSON{rng.Uint32(), coord(), coord(), coord(), coord()}
		}
		return s
	}
	caches := []string{"", "hit", "miss"}
	dists := []float64{0, 0.5, 1e21, 1e-7, 5e-324, 1e20, 123456789, 1e-6, 999999999999999999999, 1.7976931348623157e308, math.Pi}
	var hits []NearestHitJSON
	for i, f := range dists {
		hits = append(hits, NearestHitJSON{uint32(i), f, coord(), coord(), coord(), coord()})
	}
	extreme := []SegmentJSON{{math.MaxUint32, math.MinInt32, math.MaxInt32, -1, 0}}
	out := []any{
		&WindowResponse{},
		&WindowResponse{Segments: []SegmentJSON{}, Cache: "hit"},
		&WindowResponse{Window: RectJSON{-5, math.MinInt32, math.MaxInt32, 7}, Count: 1, Segments: extreme, Stats: stats(), Cache: "miss"},
		&WindowResponse{Count: math.MinInt64, Cache: "<a href=\"x\">&\\\u2028\x7f\x01é"},
		&IncidentResponse{},
		&IncidentResponse{X: -1, Y: math.MinInt32, Count: math.MaxInt64, Segments: extreme, Cache: "hit"},
		&IncidentResponse{Segments: []SegmentJSON{}},
		&NearestResponse{},
		&NearestResponse{Results: []NearestHitJSON{}, Cache: "miss"},
		&NearestResponse{X: math.MaxInt32, Y: -3, K: len(hits), Results: hits, Stats: stats(), Cache: "hit"},
		&BatchResponse{},
		&BatchResponse{Queries: []WindowResponse{}},
		&BatchResponse{Queries: []WindowResponse{{}, {Segments: extreme, Cache: "miss"}, {Segments: []SegmentJSON{}}}},
	}
	for i := 0; i < n; i++ {
		w := &WindowResponse{RectJSON{coord(), coord(), coord(), coord()}, rng.Intn(1000), segments(), stats(), caches[rng.Intn(3)]}
		nr := &NearestResponse{X: coord(), Y: coord(), K: rng.Intn(128), Stats: stats(), Cache: caches[rng.Intn(3)]}
		for j := rng.Intn(8); j > 0; j-- {
			f := math.Float64frombits(rng.Uint64())
			if math.IsNaN(f) || math.IsInf(f, 0) {
				f = float64(rng.Int63())
			}
			nr.Results = append(nr.Results, NearestHitJSON{rng.Uint32(), f, coord(), coord(), coord(), coord()})
		}
		out = append(out, w, nr,
			&IncidentResponse{coord(), coord(), rng.Intn(50), segments(), stats(), caches[rng.Intn(3)]},
			&BatchResponse{Queries: []WindowResponse{*w, {Segments: segments()}}})
	}
	return out
}

// encodeHot runs the hand-written encoder of v's type.
func encodeHot(t testing.TB, v any) []byte {
	b, err := appendJSON(nil, v)
	if err != nil {
		t.Fatalf("appendJSON(%T): %v", v, err)
	}
	switch v := v.(type) {
	case *WindowResponse:
		if direct := appendWindowResponse(nil, v); string(direct)+"\n" != string(b) {
			t.Fatalf("appendJSON and appendWindowResponse disagree")
		}
	case *IncidentResponse:
		if direct := appendIncidentResponse(nil, v); string(direct)+"\n" != string(b) {
			t.Fatalf("appendJSON and appendIncidentResponse disagree")
		}
	}
	return b
}

func TestEncodersMatchEncodingJSON(t *testing.T) {
	// The last one carries invalid UTF-8, which no JSON encoder preserves.
	for _, v := range append(wireSamples(50), &WindowResponse{Cache: "a\xffb"}) {
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if got := encodeHot(t, v); string(got) != string(want)+"\n" {
			t.Fatalf("%T: hand encoder wrote\n%s\nencoding/json writes\n%s", v, got, want)
		}
	}
	// A float encoding/json refuses is an error here too, not bad JSON.
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := appendJSON(nil, &NearestResponse{Results: []NearestHitJSON{{DistSq: f}}}); err == nil {
			t.Fatalf("dist_sq %v encoded without error", f)
		}
	}
}

// decodeBoth decodes body into fresh values of v's type with decodeJSON
// and with encoding/json.
func decodeBoth(v any, body []byte) (got, want any, gotErr, wantErr error) {
	got = reflect.New(reflect.TypeOf(v).Elem()).Interface()
	want = reflect.New(reflect.TypeOf(v).Elem()).Interface()
	return got, want, decodeJSON(body, got), json.Unmarshal(body, want)
}

func TestDecoderRoundTripsEncoder(t *testing.T) {
	for _, v := range wireSamples(50) {
		body := encodeHot(t, v)
		got, _, err, _ := decodeBoth(v, body)
		if err != nil {
			t.Fatalf("%T: %v\n%s", v, err, body)
		}
		if !reflect.DeepEqual(got, v) {
			t.Fatalf("%T: decoded %+v, encoded %+v", v, got, v)
		}
		// A truncated body is an error, never a short answer.
		body = bytes.TrimSpace(body)
		for n := 0; n < len(body); n += 1 + n/16 {
			if got, _, err, _ := decodeBoth(v, body[:n]); err == nil {
				t.Fatalf("%T: the first %d of %d bytes decoded to %+v", v, n, len(body), got)
			}
		}
	}
}

// TestEveryServerBodyTakesTheStrictPath calls the strict reader itself
// on the bodies the encoders write and on the recorded ones: an encoder
// change that sends them to encoding/json, many times slower, fails
// here and not only in a benchmark.
func TestEveryServerBodyTakesTheStrictPath(t *testing.T) {
	check := func(name string, v any, body []byte) {
		t.Helper()
		got := reflect.New(reflect.TypeOf(v).Elem()).Interface()
		want := reflect.New(reflect.TypeOf(v).Elem()).Interface()
		if !decodeStrict(body, got) {
			t.Fatalf("%s: the strict reader stopped on\n%s", name, body)
		}
		if err := json.Unmarshal(body, want); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: strict reader %+v, encoding/json %+v (%v)", name, got, want, err)
		}
	}
	for _, v := range wireSamples(50) {
		// The server sets cache to "", "hit" or "miss" only.
		if w, ok := v.(*WindowResponse); ok && w.Cache != "" && w.Cache != "hit" && w.Cache != "miss" {
			continue
		}
		check(fmt.Sprintf("%T", v), v, encodeHot(t, v))
	}
	for name, v := range map[string]any{"window": &WindowResponse{}, "nearest": &NearestResponse{}, "incident": &IncidentResponse{}} {
		check(name, v, readTestdata(t, "head_"+name+".json"))
	}
}

// canonicalWindow is a window body as the server writes it, newline
// included; lateFallbacks are bodies that match it until near the end,
// or differ only in its segment array.
const (
	canonicalSegments = `[{"id":3,"x1":1,"y1":2,"x2":3,"y2":4},{"id":7,"x1":-5,"y1":6,"x2":7,"y2":8}]`
	canonicalWindow   = `{"window":{"x1":0,"y1":-256,"x2":511,"y2":255},"count":2,"segments":` + canonicalSegments +
		`,"stats":{"disk_accesses":3,"seg_comps":4,"node_comps":5,"pool_hits":6,"pool_requests":7,"wall_micros":8},"cache":"hit"}` + "\n"
)

var lateFallbacks = []string{
	strings.Replace(canonicalWindow, `"hit"}`, `"hit" }`, 1),
	strings.Replace(canonicalWindow, `"hit"`, `"HIT"`, 1),
	strings.Replace(canonicalWindow, `"y2":8`, `"y2":-0`, 1),
	strings.Replace(canonicalWindow, `"disk_accesses":3`, `"disk_accesses":18446744073709551615`, 1) + " ",
	strings.Replace(canonicalWindow, `"disk_accesses":3`, `"disk_accesses":18446744073709551616`, 1),
	strings.Replace(canonicalWindow, canonicalSegments, `[ ]`, 1),
	strings.Replace(canonicalWindow, `"hit"}`, `"miss","more":{"a":[1]}}`, 1),
	strings.Replace(canonicalWindow, `"hit"}`, `"hit"}{}`, 1),
	strings.Replace(canonicalWindow, "}\n", "}\n\n", 1),
	strings.TrimSuffix(canonicalWindow, "\n"),
}

func TestDecoderAcceptsWhatEncodingJSONAccepts(t *testing.T) {
	type row struct {
		v    any
		body string
	}
	rows := []row{{&WindowResponse{}, canonicalWindow}}
	if !decodeStrict([]byte(canonicalWindow), &WindowResponse{}) {
		t.Fatalf("the strict reader stopped on canonicalWindow")
	}
	// Canonical until near the end: the strict reader must stop and
	// leave its output as it was, or encoding/json would decode over
	// a half-filled struct.
	for _, body := range lateFallbacks {
		var w WindowResponse
		if decodeStrict([]byte(body), &w) || !reflect.DeepEqual(w, WindowResponse{}) {
			t.Errorf("the strict reader took, or wrote into its output on\n%s", body)
		}
		rows = append(rows, row{&WindowResponse{}, body})
	}
	for _, tc := range append(rows, []row{
		// Any key order, any whitespace.
		{&WindowResponse{}, " {\n\t\"cache\" : \"hit\" , \"stats\":{ \"wall_micros\":-3,\"seg_comps\" :7 },\r\n \"segments\":[ {\"y2\":4,\"id\":9,\"x1\":-1} , { } ],\"count\":2,\"window\":{\"y1\":2,\"x1\":1}} \n"},
		// Unknown members of every type and nesting are skipped.
		{&IncidentResponse{}, `{"x":1,"new":{"a":[1,2.5e3,{"b":null}],"c":"}\"]"},"y":2,"also":[[[]]],"t":true,"f":false,"n":null,"s":"x","count":0,"segments":[{"id":1,"w":[{}]}]}`},
		// null: a slice becomes nil, everything else is left alone.
		{&WindowResponse{}, `{"segments":null,"count":null,"window":null,"stats":null,"cache":null}`},
		{&NearestResponse{}, `{"results":null,"k":3,"x":null}`},
		{&BatchResponse{}, `{"queries":null}`},
		{&BatchResponse{}, `null`},
		{&NearestResponse{}, `{"results":[null,{"dist_sq":null,"id":null}]}`},
		// Escapes in strings and in keys; keys match under case folding.
		{&WindowResponse{}, `{"cache":"a\"b\\c\/\b\f\n\r\té😀\ud800é"}`},
		{&WindowResponse{}, `{"cache":"x","COUNT":4,"Window":{"X1":5},"ſtats":{"Known":1,"SEG_COMPS":2}}`},
		// Numbers: every float form, -0, the integer extremes.
		{&NearestResponse{}, `{"results":[{"dist_sq":-0},{"dist_sq":1E+2},{"dist_sq":0.5e-3},{"dist_sq":12.25},{"dist_sq":1e400,"id":1}],"x":-0,"k":-9223372036854775808}`},
		{&WindowResponse{}, `{"count":9223372036854775807,"segments":[{"id":4294967295,"x1":-2147483648,"y1":2147483647}],"stats":{"disk_accesses":18446744073709551615,"wall_micros":-9223372036854775808}}`},
		// A repeated member decodes over the earlier one.
		{&WindowResponse{}, `{"segments":[{"id":1,"x1":5},{"id":2},{"id":3}],"segments":[{"x2":7}],"segments":[{},{"y1":1},{}],"count":1,"count":2}`},
		// What it must reject.
		{&WindowResponse{}, `{"count":1} x`},
		{&WindowResponse{}, `{"count":1}{}`},
		{&WindowResponse{}, `{"count":9223372036854775808}`},
		{&WindowResponse{}, `{"count":-9223372036854775809}`},
		{&WindowResponse{}, `{"count":1.0}`},
		{&WindowResponse{}, `{"count":1e2}`},
		{&WindowResponse{}, `{"count":01}`},
		{&WindowResponse{}, `{"count":-}`},
		{&WindowResponse{}, `{"count":"1"}`},
		{&WindowResponse{}, `{"window":{"x1":2147483648}}`},
		{&WindowResponse{}, `{"window":{"x1":-2147483649}}`},
		{&WindowResponse{}, `{"segments":[{"id":4294967296}]}`},
		{&WindowResponse{}, `{"segments":[{"id":-1}]}`},
		{&WindowResponse{}, `{"segments":[{"id":-0}]}`},
		{&WindowResponse{}, `{"segments":{}}`},
		{&WindowResponse{}, `{"segments":[{},]}`},
		{&WindowResponse{}, `{"stats":{"seg_comps":18446744073709551616}}`},
		{&WindowResponse{}, `{"cache":"a` + "\n" + `b"}`},
		{&WindowResponse{}, `{"cache":"\x"}`},
		{&WindowResponse{}, `{"cache":hit}`},
		{&WindowResponse{}, `{"unknown":[1,}`},
		{&WindowResponse{}, `{"unknown":nul}`},
		{&WindowResponse{}, `{"count":1,}`},
		{&WindowResponse{}, `{"count" 1}`},
		{&WindowResponse{}, `{count:1}`},
		{&WindowResponse{}, `[]`},
		{&WindowResponse{}, ``},
		{&NearestResponse{}, `{"results":[{"dist_sq":.5}]}`},
		{&NearestResponse{}, `{"results":[{"dist_sq":+1}]}`},
		{&NearestResponse{}, `{"results":[{"dist_sq":1.}]}`},
		{&NearestResponse{}, `{"results":[{"dist_sq":1e}]}`},
		{&NearestResponse{}, `{"results":[{"dist_sq":1e999}]}`},
		{&NearestResponse{}, `{"results":[{"dist_sq":"1"}]}`},
		{&NearestResponse{}, `{"results":[{"dist_sq":NaN}]}`},
	}...) {
		got, want, gotErr, wantErr := decodeBoth(tc.v, []byte(tc.body))
		if (gotErr == nil) != (wantErr == nil) {
			t.Errorf("%s\ndecodeJSON: %v\nencoding/json: %v", tc.body, gotErr, wantErr)
		} else if gotErr == nil && !reflect.DeepEqual(got, want) {
			t.Errorf("%s\ndecodeJSON: %+v\nencoding/json: %+v", tc.body, got, want)
		}
	}
}

// FuzzDecodeResponse holds decodeJSON to encoding/json on arbitrary
// bodies: it never panics, it fails exactly when encoding/json does, and
// otherwise both produce the same struct. The seed corpus under
// testdata/fuzz is encodeHot of wireSamples(1), bodies of the table
// above and lateFallbacks.
func FuzzDecodeResponse(f *testing.F) {
	kinds := []any{&WindowResponse{}, &NearestResponse{}, &IncidentResponse{}, &BatchResponse{}}
	f.Fuzz(func(t *testing.T, kind uint8, body []byte) {
		got, want, gotErr, wantErr := decodeBoth(kinds[int(kind)%len(kinds)], body)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("decodeJSON: %v\nencoding/json: %v", gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("decodeJSON: %+v\nencoding/json: %+v", got, want)
		}
	})
}

// The recorded bodies under testdata are what the server at the commit
// before the hand-written codec answered; see TestServerReproducesRecordedBodies.
func TestRecordedBodiesDecode(t *testing.T) {
	for name, v := range map[string]any{"window": &WindowResponse{}, "nearest": &NearestResponse{}, "incident": &IncidentResponse{}} {
		body := readTestdata(t, "head_"+name+".json")
		got, want, gotErr, wantErr := decodeBoth(v, body)
		if gotErr != nil || wantErr != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: decodeJSON %+v (%v), encoding/json %+v (%v)", name, got, gotErr, want, wantErr)
		}
		if again := encodeHot(t, got); !bytes.Equal(again, body) {
			t.Fatalf("%s: re-encoded\n%s\nrecorded\n%s", name, again, body)
		}
	}
}
