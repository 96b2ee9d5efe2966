package api

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"

	"segdb"
	"segdb/internal/router"
)

func readTestdata(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestServerReproducesRecordedBodies replays the three requests whose
// answers were recorded from the server at the commit before the
// hand-written codec (encoding/json on both sides): the bytes on the
// wire did not change. Only wall_micros is a measurement.
func TestServerReproducesRecordedBodies(t *testing.T) {
	ts, _, _, _ := testServer(t, Config{})
	wall := regexp.MustCompile(`"wall_micros":\d+`)
	for name, path := range map[string]string{
		"window":   "/v1/window?x1=100&y1=100&x2=700&y2=400",
		"nearest":  "/v1/nearest?x=8000&y=8000&k=5",
		"incident": "/v1/incident?x=221&y=199",
	} {
		rec := httptest.NewRecorder()
		ts.Config.Handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		got := wall.ReplaceAll(rec.Body.Bytes(), []byte(`"wall_micros":0`))
		want := wall.ReplaceAll(readTestdata(t, "head_"+name+".json"), []byte(`"wall_micros":0`))
		if rec.Code != http.StatusOK || !bytes.Equal(got, want) {
			t.Errorf("%s: status %d, body\n%s\nrecorded\n%s", name, rec.Code, got, want)
		}
		if cl := rec.Header().Get("Content-Length"); cl != fmt.Sprint(rec.Body.Len()) {
			t.Errorf("%s: Content-Length %q for a body of %d bytes", name, cl, rec.Body.Len())
		}
	}
}

// countingListener counts the connections a server accepts.
type countingListener struct {
	net.Listener
	accepted atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
	}
	return c, err
}

// TestClientKeepsItsConnection: the client leaves every response body at
// EOF — large answers and error answers included — so sequential
// requests through one transport share one connection.
func TestClientKeepsItsConnection(t *testing.T) {
	m, err := segdb.GenerateCounty("Charles")
	if err != nil {
		t.Fatal(err)
	}
	r, err := router.Build(segdb.RStarTree, m.Segments[:3000], 2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(Config{Router: r})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l := &countingListener{Listener: ln}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx, l) }()

	tr := &http.Transport{}
	c := NewClient("http://"+ln.Addr().String(), &http.Client{Transport: tr})
	for i := 0; i < 200; i++ {
		switch i % 4 {
		case 0:
			resp, err := c.Window(ctx, 0, 0, segdb.WorldSize-1, segdb.WorldSize-1)
			if err != nil || resp.Count != 3000 {
				t.Fatalf("world window: %v, %+v", err, resp)
			}
			// The large answer really is large: more than any buffer hides.
			if body, _ := appendJSON(nil, resp); len(body) < 100<<10 {
				t.Fatalf("world window body is %d bytes, want over 100 KiB", len(body))
			}
		case 1:
			if _, err := c.Nearest(ctx, int32(i), 500, 3); err != nil {
				t.Fatal(err)
			}
		case 2:
			var apiErr *APIError
			if _, err := c.Window(ctx, 9, 9, 0, 0); !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
				t.Fatalf("inverted window: %v", err)
			}
		default:
			if _, err := c.Metrics(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}
	tr.CloseIdleConnections()
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if n := l.accepted.Load(); n != 1 {
		t.Fatalf("200 sequential requests used %d connections, want 1", n)
	}
}

// TestCacheHitAllocs pins the allocations of a cache-hit /v1/window
// through the whole handler tree. Before the query string was parsed
// once, the cache keyed by a struct and the body hand-encoded it was 38.
func TestCacheHitAllocs(t *testing.T) {
	ts, _, _, _ := testServer(t, Config{})
	h := ts.Config.Handler
	req := httptest.NewRequest(http.MethodGet, "/v1/window?x1=100&y1=100&x2=700&y2=400", nil)
	h.ServeHTTP(httptest.NewRecorder(), req)
	allocs := testing.AllocsPerRun(200, func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != "hit" {
			t.Fatalf("status %d, X-Cache %q", rec.Code, rec.Header().Get("X-Cache"))
		}
	})
	t.Logf("cache-hit /v1/window: %.0f allocs", allocs)
	if allocs > 24 {
		t.Fatalf("cache-hit /v1/window allocates %.0f times, want at most 24", allocs)
	}
}

// TestPostBodiesAreBounded: a POST body one byte over the bound is
// refused with invalid_argument instead of being read; one of exactly
// the bound is served.
func TestPostBodiesAreBounded(t *testing.T) {
	ts, _, _, _ := testServer(t, Config{})
	for _, tc := range []struct {
		path, open string
		limit      int
	}{
		{"/v1/window/batch", `{"windows":[{"x1":0,"y1":0,"x2":9,"y2":9}]`, (maxBatchWindows + 1) * maxCoordsBytes},
		{"/v1/ingest", `{"segments":[{"x1":0,"y1":0,"x2":9,"y2":9}]`, (maxIngestSegments + 1) * maxCoordsBytes},
	} {
		for over := 0; over <= 1; over++ {
			body := tc.open + strings.Repeat(" ", tc.limit+over-len(tc.open)-1) + "}"
			resp, err := ts.Client().Post(ts.URL+tc.path, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var e ErrorResponse
			raw := new(bytes.Buffer)
			_, _ = raw.ReadFrom(resp.Body)
			resp.Body.Close()
			_ = decodeJSON(raw.Bytes(), &e)
			switch {
			case over == 0 && resp.StatusCode != http.StatusOK:
				t.Errorf("%s with a body of the bound: status %d (%s)", tc.path, resp.StatusCode, raw)
			case over == 1 && (resp.StatusCode != http.StatusBadRequest || e.Code != string(segdb.CodeInvalid) || !strings.Contains(e.Error, "too large")):
				t.Errorf("%s with a body one byte over: status %d, %+v", tc.path, resp.StatusCode, e)
			}
		}
	}
}
