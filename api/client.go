package api

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"segdb"
)

// Client is the Go client of the serving tier's HTTP API.
type Client struct {
	base string
	hc   *http.Client
}

// NewClient returns a client for the server at base (e.g.
// "http://127.0.0.1:8080"). A nil hc uses http.DefaultClient; pass one
// with its own Timeout for client-side deadlines.
func NewClient(base string, hc *http.Client) *Client {
	if hc == nil {
		hc = http.DefaultClient
	}
	return &Client{base: base, hc: hc}
}

// APIError is a non-2xx answer decoded from the wire: Code is the
// stable segdb.ErrCode spelling, Status the HTTP status.
type APIError struct {
	Status  int
	Code    string
	Message string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("api: %s (code %s, http %d)", e.Message, e.Code, e.Status)
}

// maxErrorBody bounds how much of a non-200 answer do reads.
const maxErrorBody = 64 << 10

// do performs one request and decodes the JSON answer into out. It
// leaves the body at EOF on every path: net/http returns a connection to
// the keep-alive pool only when its response was read to the end.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var apiErr ErrorResponse
		derr := json.NewDecoder(io.LimitReader(resp.Body, maxErrorBody)).Decode(&apiErr)
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, maxErrorBody))
		if derr != nil || apiErr.Code == "" {
			return &APIError{Status: resp.StatusCode, Code: string(segdb.CodeInternal), Message: resp.Status}
		}
		return &APIError{Status: resp.StatusCode, Code: apiErr.Code, Message: apiErr.Error}
	}
	// Read the whole body into a pooled buffer sized from Content-Length,
	// then decode: nothing decoded aliases the buffer.
	buf := wireBufs.Get().(*bytes.Buffer)
	defer putWireBuf(buf)
	buf.Reset()
	if n := resp.ContentLength; n > 0 && n <= maxPooledBuf {
		buf.Grow(int(n) + bytes.MinRead) // room for the read that finds EOF
	}
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return err
	}
	return decodeJSON(buf.Bytes(), out)
}

// Window fetches the segments intersecting the window (the server may
// widen it to its cache quantum; the response reports the window
// served).
func (c *Client) Window(ctx context.Context, x1, y1, x2, y2 int32) (*WindowResponse, error) {
	path := fmt.Sprintf("/v1/window?x1=%d&y1=%d&x2=%d&y2=%d", x1, y1, x2, y2)
	var resp WindowResponse
	if err := c.do(ctx, http.MethodGet, path, nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Batch runs many exact (unsnapped, uncached) windows in one request.
func (c *Client) Batch(ctx context.Context, windows []RectJSON) (*BatchResponse, error) {
	var resp BatchResponse
	if err := c.do(ctx, http.MethodPost, "/v1/window/batch", &BatchRequest{Windows: windows}, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Nearest fetches the k segments nearest to (x, y).
func (c *Client) Nearest(ctx context.Context, x, y int32, k int) (*NearestResponse, error) {
	path := fmt.Sprintf("/v1/nearest?x=%d&y=%d&k=%d", x, y, k)
	var resp NearestResponse
	if err := c.do(ctx, http.MethodGet, path, nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Incident fetches the segments with an endpoint at (x, y).
func (c *Client) Incident(ctx context.Context, x, y int32) (*IncidentResponse, error) {
	path := fmt.Sprintf("/v1/incident?x=%d&y=%d", x, y)
	var resp IncidentResponse
	if err := c.do(ctx, http.MethodGet, path, nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Ingest routes segments into the live collection and returns their
// assigned global IDs (in input order).
func (c *Client) Ingest(ctx context.Context, segments []SegmentCoordsJSON) (*IngestResponse, error) {
	var resp IngestResponse
	if err := c.do(ctx, http.MethodPost, "/v1/ingest", &IngestRequest{Segments: segments}, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Compact folds every shard's staging tier into its disk index.
func (c *Client) Compact(ctx context.Context) (*CompactResponse, error) {
	var resp CompactResponse
	if err := c.do(ctx, http.MethodPost, "/v1/compact", nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Metrics fetches the server's counter and profile snapshot.
func (c *Client) Metrics(ctx context.Context) (*MetricsResponse, error) {
	var resp MetricsResponse
	if err := c.do(ctx, http.MethodGet, "/metrics", nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Health fetches the liveness answer.
func (c *Client) Health(ctx context.Context) (*HealthResponse, error) {
	var resp HealthResponse
	if err := c.do(ctx, http.MethodGet, "/healthz", nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}
