package api

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"segdb"
	"segdb/internal/router"
)

// testServer builds a small sharded server over a Charles county
// subsample and returns it with its router and segment set.
func testServer(t *testing.T, cfg Config) (*httptest.Server, *Client, *router.Router, []segdb.Segment) {
	t.Helper()
	m, err := segdb.GenerateCounty("Charles")
	if err != nil {
		t.Fatal(err)
	}
	segs := m.Segments[:1000]
	r, err := router.Build(segdb.RStarTree, segs, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Router = r
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts, NewClient(ts.URL, ts.Client()), r, segs
}

func TestWindowEndpointAndCache(t *testing.T) {
	_, c, r, _ := testServer(t, Config{Quantum: 256})
	ctx := context.Background()

	resp, err := c.Window(ctx, 4000, 4000, 4500, 4600)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cache != "miss" {
		t.Fatalf("first request: cache %q, want miss", resp.Cache)
	}
	// The served window is the request snapped outward to the quantum.
	w := resp.Window
	if w.X1 > 4000 || w.Y1 > 4000 || w.X2 < 4500 || w.Y2 < 4600 {
		t.Fatalf("served window %+v does not cover the request", w)
	}
	if w.X1%256 != 0 || w.Y1%256 != 0 || (w.X2+1)%256 != 0 || (w.Y2+1)%256 != 0 {
		t.Fatalf("served window %+v not quantum-aligned", w)
	}
	// The answer matches a direct routed query over the served window.
	hits, _, err := r.WindowAppendCtx(ctx, segdb.RectOf(w.X1, w.Y1, w.X2, w.Y2), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]segdb.SegmentID, len(hits))
	for i, h := range hits {
		want[i] = h.ID
	}
	got := make([]segdb.SegmentID, len(resp.Segments))
	for i, s := range resp.Segments {
		got[i] = segdb.SegmentID(s.ID)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("window answer: %d segments, direct query %d", len(got), len(want))
	}
	if resp.Count != len(resp.Segments) {
		t.Fatalf("count %d != %d segments", resp.Count, len(resp.Segments))
	}

	// Any request inside the same tile is a cache hit with the same body.
	again, err := c.Window(ctx, 4010, 4020, 4490, 4580)
	if err != nil {
		t.Fatal(err)
	}
	if again.Cache != "hit" {
		t.Fatalf("second request: cache %q, want hit", again.Cache)
	}
	if again.Count != resp.Count || again.Window != resp.Window {
		t.Fatalf("cache hit served a different answer: %+v vs %+v", again.Window, resp.Window)
	}

	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.CacheHits != 1 || m.CacheMisses != 1 {
		t.Fatalf("cache counters: %d hits, %d misses, want 1/1", m.CacheHits, m.CacheMisses)
	}
	if m.Shards != 4 || len(m.PerShard) != 4 || m.Segments != 1000 {
		t.Fatalf("metrics shape wrong: %+v", m)
	}
	if m.Requests == 0 {
		t.Fatal("request counter not incremented")
	}
}

func TestNearestAndIncidentEndpoints(t *testing.T) {
	_, c, r, segs := testServer(t, Config{})
	ctx := context.Background()

	resp, err := c.Nearest(ctx, 8000, 8000, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 5 {
		t.Fatalf("nearest k=5: %d results", len(resp.Results))
	}
	want, _, err := r.NearestKCtx(ctx, segdb.Pt(8000, 8000), 5)
	if err != nil {
		t.Fatal(err)
	}
	for i, hit := range resp.Results {
		if segdb.SegmentID(hit.ID) != want[i].ID || hit.DistSq != want[i].DistSq {
			t.Fatalf("nearest #%d: got (%d, %v), want (%d, %v)", i, hit.ID, hit.DistSq, want[i].ID, want[i].DistSq)
		}
	}

	p := segs[10].P1
	inc, err := c.Incident(ctx, p.X, p.Y)
	if err != nil {
		t.Fatal(err)
	}
	if inc.Count < 1 {
		t.Fatalf("incident at a real endpoint found nothing")
	}
	found := false
	for _, s := range inc.Segments {
		if s.ID == 10 {
			found = true
		}
	}
	if !found {
		t.Fatalf("incident at segment 10's endpoint does not report segment 10: %+v", inc.Segments)
	}
}

func TestBatchEndpoint(t *testing.T) {
	_, c, r, _ := testServer(t, Config{})
	ctx := context.Background()
	windows := []RectJSON{
		{X1: 1000, Y1: 1000, X2: 3000, Y2: 3000},
		{X1: 9000, Y1: 9000, X2: 9100, Y2: 9100},
		{X1: 0, Y1: 0, X2: 16383, Y2: 16383},
	}
	resp, err := c.Batch(ctx, windows)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Queries) != len(windows) {
		t.Fatalf("%d answers for %d windows", len(resp.Queries), len(windows))
	}
	for q, rw := range windows {
		// Batch serves exact windows: no snapping.
		if resp.Queries[q].Window != rw {
			t.Fatalf("batch window %d snapped: %+v", q, resp.Queries[q].Window)
		}
		hits, _, err := r.WindowAppendCtx(ctx, segdb.RectOf(rw.X1, rw.Y1, rw.X2, rw.Y2), nil)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Queries[q].Count != len(hits) {
			t.Fatalf("batch window %d: %d segments, want %d", q, resp.Queries[q].Count, len(hits))
		}
	}
}

func TestErrorMapping(t *testing.T) {
	ts, c, _, _ := testServer(t, Config{MaxK: 16})
	ctx := context.Background()

	cases := []struct {
		path   string
		status int
		code   string
	}{
		{"/v1/window?x1=10&y1=10&y2=20", 400, "invalid_argument"},        // missing x2
		{"/v1/window?x1=100&y1=10&x2=50&y2=20", 400, "invalid_argument"}, // negative extent
		{"/v1/window?x1=a&y1=10&x2=50&y2=20", 400, "invalid_argument"},   // unparsable
		{"/v1/nearest?x=10&y=10&k=999", 400, "invalid_argument"},         // k over MaxK
		{"/v1/nearest?x=10&y=10&k=0", 400, "invalid_argument"},
		{"/v1/incident?x=10", 400, "invalid_argument"},
	}
	for _, tc := range cases {
		resp, err := ts.Client().Get(ts.URL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		var body ErrorResponse
		if derr := decodeBody(resp, &body); derr != nil {
			t.Fatalf("%s: %v", tc.path, derr)
		}
		if resp.StatusCode != tc.status || body.Code != tc.code {
			t.Fatalf("%s: status %d code %q, want %d %q", tc.path, resp.StatusCode, body.Code, tc.status, tc.code)
		}
	}

	// The client surfaces the code in a typed error.
	_, err := c.Nearest(ctx, 10, 10, 999)
	apiErr, ok := err.(*APIError)
	if !ok || apiErr.Code != "invalid_argument" || apiErr.Status != 400 {
		t.Fatalf("client error: %v", err)
	}
}

func decodeBody(resp *http.Response, v any) error {
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}

func TestRequestTimeoutMapsToDeadlineCode(t *testing.T) {
	ts, _, _, _ := testServer(t, Config{Timeout: time.Nanosecond})
	resp, err := ts.Client().Get(ts.URL + "/v1/window?x1=0&y1=0&x2=16383&y2=16383")
	if err != nil {
		t.Fatal(err)
	}
	var body ErrorResponse
	if derr := decodeBody(resp, &body); derr != nil {
		t.Fatal(derr)
	}
	if resp.StatusCode != http.StatusGatewayTimeout || body.Code != "deadline_exceeded" {
		t.Fatalf("timed-out query: status %d code %q", resp.StatusCode, body.Code)
	}
}

func TestHealthz(t *testing.T) {
	_, c, _, _ := testServer(t, Config{})
	h, err := c.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Shards != 4 || h.Segments != 1000 {
		t.Fatalf("health: %+v", h)
	}
}

func TestServerRunGracefulShutdown(t *testing.T) {
	m, err := segdb.GenerateCounty("Charles")
	if err != nil {
		t.Fatal(err)
	}
	r, err := router.Build(segdb.RStarTree, m.Segments[:500], 2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(Config{Router: r})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx, l) }()

	c := NewClient("http://"+l.Addr().String(), nil)
	if _, err := c.Health(context.Background()); err != nil {
		t.Fatal(err)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run after shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after context cancellation")
	}
}

func TestLoadGenDeterministicAndInWorld(t *testing.T) {
	endpoints := []segdb.Point{segdb.Pt(5, 5), segdb.Pt(100, 200)}
	a := NewLoadGen(LoadConfig{Seed: 9, Endpoints: endpoints})
	b := NewLoadGen(LoadConfig{Seed: 9, Endpoints: endpoints})
	kinds := map[OpKind]int{}
	for i := 0; i < 500; i++ {
		oa, ob := a.Next(), b.Next()
		if oa != ob {
			t.Fatalf("op %d diverged: %+v vs %+v", i, oa, ob)
		}
		kinds[oa.Kind]++
		check := func(v int32) {
			if v < 0 || v >= segdb.WorldSize {
				t.Fatalf("op %d out of world: %+v", i, oa)
			}
		}
		switch oa.Kind {
		case OpWindow:
			check(oa.X1)
			check(oa.Y1)
			check(oa.X2)
			check(oa.Y2)
			if oa.X1 > oa.X2 || oa.Y1 > oa.Y2 {
				t.Fatalf("op %d inverted window: %+v", i, oa)
			}
		default:
			check(oa.X)
			check(oa.Y)
		}
	}
	if kinds[OpWindow] == 0 || kinds[OpNearest] == 0 || kinds[OpIncident] == 0 {
		t.Fatalf("load mix missing a kind: %v", kinds)
	}
	// A different seed diverges.
	cgen := NewLoadGen(LoadConfig{Seed: 10, Endpoints: endpoints})
	same := true
	agen := NewLoadGen(LoadConfig{Seed: 9, Endpoints: endpoints})
	for i := 0; i < 50; i++ {
		if agen.Next() != cgen.Next() {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced the same stream")
	}
}
