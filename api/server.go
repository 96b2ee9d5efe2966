package api

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"segdb"
	"segdb/internal/router"
)

// Defaults for Config's zero values.
const (
	DefaultTimeout      = 5 * time.Second
	DefaultCacheEntries = 512
	DefaultQuantum      = 256
	DefaultMaxK         = 128
	// maxBatchWindows bounds one POST /v1/window/batch request.
	maxBatchWindows = 1024
	// maxIngestSegments bounds one POST /v1/ingest request.
	maxIngestSegments = 65536
	// maxCoordsBytes is the room a POST body gets per window or segment
	// (the longest compact encoding of one is 70 bytes) and for its
	// envelope; a longer body is refused unread.
	maxCoordsBytes = 128
	// shutdownGrace bounds how long Run waits for in-flight requests
	// after its context is canceled.
	shutdownGrace = 5 * time.Second
)

// Config configures a Server. The zero value of every field selects a
// sensible default; only Router is required.
type Config struct {
	// Router serves every query. Build one with router.Build; a single
	// shard makes the server an unsharded front end.
	Router *router.Router
	// Timeout bounds each request: on expiry the in-flight query is
	// canceled at its next page fetch and the client gets 504 with code
	// "deadline_exceeded". Zero means DefaultTimeout.
	Timeout time.Duration
	// CacheEntries sizes the LRU result cache. Zero means
	// DefaultCacheEntries; negative disables caching.
	CacheEntries int
	// Quantum is the tile size window requests are snapped outward to
	// before execution, so every request inside one tile shares a cache
	// entry (the response reports the effective window served). Zero
	// means DefaultQuantum; 1 serves exact windows.
	Quantum int32
	// MaxK caps the k of /v1/nearest. Zero means DefaultMaxK.
	MaxK int
}

// Server is the HTTP front end of the serving tier. Create one with
// NewServer, mount Handler on any http.Server, or let Run manage the
// listener and graceful shutdown.
type Server struct {
	cfg      Config
	router   *router.Router
	cache    *resultCache
	start    time.Time
	requests atomic.Uint64
	// gen is the result-cache generation: every cache key embeds it and
	// every ingest bumps it, so answers cached over the previous contents
	// can never serve a post-ingest request. Stale entries age out of the
	// LRU on their own.
	gen atomic.Uint64
	mux *http.ServeMux
}

// NewServer validates cfg, applies defaults, and builds the handler
// tree.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Router == nil {
		return nil, fmt.Errorf("api: Config.Router is required: %w", segdb.ErrInvalidArgument)
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = DefaultTimeout
	}
	if cfg.CacheEntries == 0 {
		cfg.CacheEntries = DefaultCacheEntries
	}
	if cfg.Quantum <= 0 {
		cfg.Quantum = DefaultQuantum
	}
	if cfg.MaxK <= 0 {
		cfg.MaxK = DefaultMaxK
	}
	cfg.MaxK = min(cfg.MaxK, math.MaxInt32) // k is an int32 of the cache key
	s := &Server{
		cfg:    cfg,
		router: cfg.Router,
		cache:  newResultCache(cfg.CacheEntries),
		start:  time.Now(),
		mux:    http.NewServeMux(),
	}
	s.mux.HandleFunc("GET /v1/window", s.handleWindow)
	s.mux.HandleFunc("POST /v1/window/batch", s.handleBatch)
	s.mux.HandleFunc("GET /v1/nearest", s.handleNearest)
	s.mux.HandleFunc("GET /v1/incident", s.handleIncident)
	s.mux.HandleFunc("POST /v1/ingest", s.handleIngest)
	s.mux.HandleFunc("POST /v1/compact", s.handleCompact)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	return s, nil
}

// Handler returns the server's handler tree, for mounting on an
// existing http.Server or httptest.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		s.mux.ServeHTTP(w, r)
	})
}

// Run serves on l until ctx is canceled, then shuts down gracefully —
// in-flight requests get shutdownGrace to finish — and returns nil on a
// clean shutdown. The caller owns the listener's address (pass a
// ":0"-bound listener for an ephemeral port).
func (s *Server) Run(ctx context.Context, l net.Listener) error {
	hs := &http.Server{
		Handler: s.Handler(),
		// BaseContext ties every request to Run's context, so canceling
		// it also cancels in-flight queries, not just the accept loop.
		BaseContext: func(net.Listener) context.Context { return ctx },
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(l) }()
	select {
	case <-ctx.Done():
		shCtx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		defer cancel()
		if err := hs.Shutdown(shCtx); err != nil {
			return err
		}
		<-errc // always http.ErrServerClosed after Shutdown
		return nil
	case err := <-errc:
		return err
	}
}

// queryCtx derives the per-request query context: the request context
// (canceled when the client disconnects) bounded by the server's
// per-request timeout. The DB's cancellation machinery aborts the query
// at its next page fetch.
func (s *Server) queryCtx(r *http.Request) (context.Context, context.CancelFunc) {
	return context.WithTimeout(r.Context(), s.cfg.Timeout)
}

// writeJSON encodes v with status code: the whole body in one Write
// behind a Content-Length, so no response is chunked and a client that
// reads it to the end keeps its connection.
func writeJSON(w http.ResponseWriter, status int, v any) {
	buf := wireBufs.Get().(*bytes.Buffer)
	defer putWireBuf(buf)
	buf.Reset()
	b, err := appendJSON(buf.AvailableBuffer(), v)
	if err != nil {
		status = segdb.CodeInternal.HTTPStatus()
		b, _ = appendJSON(b[:0], ErrorResponse{Error: err.Error(), Code: string(segdb.CodeInternal)})
	}
	buf.Write(b) // in place once the pooled buffer has grown to the size of a body
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(status)
	_, _ = w.Write(b) // a failed write means the client is gone
}

// writeError maps err through the facade's stable code table: the HTTP
// status is ErrCode.HTTPStatus() and the body carries the wire code, so
// clients switch on "code", never on message text.
func writeError(w http.ResponseWriter, err error) {
	code := segdb.ErrorCode(err)
	writeJSON(w, code.HTTPStatus(), ErrorResponse{Error: err.Error(), Code: string(code)})
}

// invalidf builds a 400-coded error.
func invalidf(format string, args ...any) error {
	return fmt.Errorf(format+": %w", append(args, segdb.ErrInvalidArgument)...)
}

// queryInt32 parses a required int32 query parameter.
func queryInt32(q url.Values, name string) (int32, error) {
	raw := q.Get(name)
	if raw == "" {
		return 0, invalidf("api: missing parameter %q", name)
	}
	v, err := strconv.ParseInt(raw, 10, 32)
	if err != nil {
		return 0, invalidf("api: parameter %q: %v", name, err)
	}
	return int32(v), nil
}

// clampWorld clamps a coordinate into [0, WorldSize).
func clampWorld(v int32) int32 {
	if v < 0 {
		return 0
	}
	if v > segdb.WorldSize-1 {
		return segdb.WorldSize - 1
	}
	return v
}

// snapWindow clamps the requested window into the world and snaps it
// outward to the cache quantum: the served window is the smallest
// quantum-aligned tile rectangle covering the request. Quantum 1 leaves
// exact windows.
func (s *Server) snapWindow(x1, y1, x2, y2 int32) (segdb.Rect, error) {
	if x1 > x2 || y1 > y2 {
		return segdb.Rect{}, invalidf("api: window (%d,%d)-(%d,%d) has negative extent", x1, y1, x2, y2)
	}
	x1, y1, x2, y2 = clampWorld(x1), clampWorld(y1), clampWorld(x2), clampWorld(y2)
	if q := s.cfg.Quantum; q > 1 {
		x1, y1 = (x1/q)*q, (y1/q)*q
		x2 = min((x2/q)*q+q-1, segdb.WorldSize-1)
		y2 = min((y2/q)*q+q-1, segdb.WorldSize-1)
	}
	return segdb.RectOf(x1, y1, x2, y2), nil
}

func toStatsJSON(st segdb.QueryStats) StatsJSON {
	return StatsJSON{
		DiskAccesses: st.DiskAccesses(),
		SegComps:     st.SegComps,
		NodeComps:    st.NodeComps,
		PoolHits:     st.PoolHits,
		PoolRequests: st.PoolRequests,
		WallMicros:   int64(st.Wall / time.Microsecond),
	}
}

func toSegmentsJSON(hits []segdb.WindowHit) []SegmentJSON {
	out := make([]SegmentJSON, len(hits))
	for i, h := range hits {
		out[i] = SegmentJSON{
			ID: uint32(h.ID),
			X1: h.Seg.P1.X, Y1: h.Seg.P1.Y,
			X2: h.Seg.P2.X, Y2: h.Seg.P2.Y,
		}
	}
	return out
}

func toRectJSON(r segdb.Rect) RectJSON {
	return RectJSON{X1: r.Min.X, Y1: r.Min.Y, X2: r.Max.X, Y2: r.Max.Y}
}

// windowBufs recycles fan-out buffers across requests.
var windowBufs = sync.Pool{New: func() any { return new([]segdb.WindowHit) }}

// runWindow executes one routed window query and builds its response
// (Cache unset; the handler stamps hit/miss).
func (s *Server) runWindow(ctx context.Context, rect segdb.Rect) (*WindowResponse, error) {
	buf := windowBufs.Get().(*[]segdb.WindowHit)
	hits, st, err := s.router.WindowAppendCtx(ctx, rect, (*buf)[:0])
	if err != nil {
		*buf = hits[:0]
		windowBufs.Put(buf)
		return nil, err
	}
	resp := &WindowResponse{
		Window:   toRectJSON(rect),
		Count:    len(hits),
		Segments: toSegmentsJSON(hits),
		Stats:    toStatsJSON(st),
	}
	*buf = hits[:0]
	windowBufs.Put(buf)
	return resp, nil
}

func (s *Server) handleWindow(w http.ResponseWriter, r *http.Request) {
	var coords [4]int32
	q := r.URL.Query()
	for i, name := range [...]string{"x1", "y1", "x2", "y2"} {
		v, err := queryInt32(q, name)
		if err != nil {
			writeError(w, err)
			return
		}
		coords[i] = v
	}
	rect, err := s.snapWindow(coords[0], coords[1], coords[2], coords[3])
	if err != nil {
		writeError(w, err)
		return
	}
	key := cacheKey{s.gen.Load(), 'w', rect.Min.X, rect.Min.Y, rect.Max.X, rect.Max.Y}
	if v, ok := s.cache.get(key); ok {
		resp := *v.(*WindowResponse) // shallow copy; cached slices are read-only
		resp.Cache = "hit"
		w.Header().Set("X-Cache", "hit")
		writeJSON(w, http.StatusOK, &resp)
		return
	}
	ctx, cancel := s.queryCtx(r)
	defer cancel()
	resp, err := s.runWindow(ctx, rect)
	if err != nil {
		writeError(w, err)
		return
	}
	s.cache.put(key, resp)
	out := *resp
	out.Cache = "miss"
	w.Header().Set("X-Cache", "miss")
	writeJSON(w, http.StatusOK, &out)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	body := http.MaxBytesReader(w, r.Body, (maxBatchWindows+1)*maxCoordsBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeError(w, invalidf("api: batch body: %v", err))
		return
	}
	if len(req.Windows) == 0 {
		writeError(w, invalidf("api: batch has no windows"))
		return
	}
	if len(req.Windows) > maxBatchWindows {
		writeError(w, invalidf("api: batch of %d windows exceeds the limit of %d", len(req.Windows), maxBatchWindows))
		return
	}
	rects := make([]segdb.Rect, len(req.Windows))
	for i, rw := range req.Windows {
		if rw.X1 > rw.X2 || rw.Y1 > rw.Y2 {
			writeError(w, invalidf("api: batch window %d has negative extent", i))
			return
		}
		// Batch windows are the analytical path: exact rectangles, no
		// snapping, no cache.
		rects[i] = segdb.RectOf(clampWorld(rw.X1), clampWorld(rw.Y1), clampWorld(rw.X2), clampWorld(rw.Y2))
	}
	ctx, cancel := s.queryCtx(r)
	defer cancel()
	perQuery := make([][]segdb.WindowHit, len(rects))
	stats, err := s.router.WindowBatchCtx(ctx, rects, func(q int, id segdb.SegmentID, seg segdb.Segment) bool {
		perQuery[q] = append(perQuery[q], segdb.WindowHit{ID: id, Seg: seg})
		return true
	})
	if err != nil {
		writeError(w, err)
		return
	}
	resp := BatchResponse{Queries: make([]WindowResponse, len(rects))}
	for q := range rects {
		resp.Queries[q] = WindowResponse{
			Window:   toRectJSON(rects[q]),
			Count:    len(perQuery[q]),
			Segments: toSegmentsJSON(perQuery[q]),
			Stats:    toStatsJSON(stats[q]),
		}
	}
	writeJSON(w, http.StatusOK, &resp)
}

func (s *Server) handleNearest(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	x, err := queryInt32(q, "x")
	if err != nil {
		writeError(w, err)
		return
	}
	y, err := queryInt32(q, "y")
	if err != nil {
		writeError(w, err)
		return
	}
	k := 1
	if raw := q.Get("k"); raw != "" {
		k, err = strconv.Atoi(raw)
		if err != nil || k < 1 {
			writeError(w, invalidf("api: parameter %q must be a positive integer", "k"))
			return
		}
	}
	if k > s.cfg.MaxK {
		writeError(w, invalidf("api: k=%d exceeds the limit of %d", k, s.cfg.MaxK))
		return
	}
	key := cacheKey{s.gen.Load(), 'n', x, y, int32(k), 0}
	if v, ok := s.cache.get(key); ok {
		resp := *v.(*NearestResponse)
		resp.Cache = "hit"
		w.Header().Set("X-Cache", "hit")
		writeJSON(w, http.StatusOK, &resp)
		return
	}
	ctx, cancel := s.queryCtx(r)
	defer cancel()
	results, st, err := s.router.NearestKCtx(ctx, segdb.Pt(x, y), k)
	if err != nil {
		writeError(w, err)
		return
	}
	resp := &NearestResponse{X: x, Y: y, K: k, Stats: toStatsJSON(st)}
	for _, res := range results {
		resp.Results = append(resp.Results, NearestHitJSON{
			ID:     uint32(res.ID),
			DistSq: res.DistSq,
			X1:     res.Seg.P1.X, Y1: res.Seg.P1.Y,
			X2: res.Seg.P2.X, Y2: res.Seg.P2.Y,
		})
	}
	s.cache.put(key, resp)
	out := *resp
	out.Cache = "miss"
	w.Header().Set("X-Cache", "miss")
	writeJSON(w, http.StatusOK, &out)
}

func (s *Server) handleIncident(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	x, err := queryInt32(q, "x")
	if err != nil {
		writeError(w, err)
		return
	}
	y, err := queryInt32(q, "y")
	if err != nil {
		writeError(w, err)
		return
	}
	key := cacheKey{s.gen.Load(), 'i', x, y, 0, 0}
	if v, ok := s.cache.get(key); ok {
		resp := *v.(*IncidentResponse)
		resp.Cache = "hit"
		w.Header().Set("X-Cache", "hit")
		writeJSON(w, http.StatusOK, &resp)
		return
	}
	ctx, cancel := s.queryCtx(r)
	defer cancel()
	var hits []segdb.WindowHit
	st, err := s.router.IncidentAtCtx(ctx, segdb.Pt(x, y), func(id segdb.SegmentID, seg segdb.Segment) bool {
		hits = append(hits, segdb.WindowHit{ID: id, Seg: seg})
		return true
	})
	if err != nil {
		writeError(w, err)
		return
	}
	resp := &IncidentResponse{
		X: x, Y: y,
		Count:    len(hits),
		Segments: toSegmentsJSON(hits),
		Stats:    toStatsJSON(st),
	}
	s.cache.put(key, resp)
	out := *resp
	out.Cache = "miss"
	w.Header().Set("X-Cache", "miss")
	writeJSON(w, http.StatusOK, &out)
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	var req IngestRequest
	body := http.MaxBytesReader(w, r.Body, (maxIngestSegments+1)*maxCoordsBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeError(w, invalidf("api: ingest body: %v", err))
		return
	}
	if len(req.Segments) == 0 {
		writeError(w, invalidf("api: ingest has no segments"))
		return
	}
	if len(req.Segments) > maxIngestSegments {
		writeError(w, invalidf("api: ingest of %d segments exceeds the limit of %d", len(req.Segments), maxIngestSegments))
		return
	}
	segs := make([]segdb.Segment, len(req.Segments))
	for i, sc := range req.Segments {
		segs[i] = segdb.Seg(sc.X1, sc.Y1, sc.X2, sc.Y2)
	}
	ids, err := s.router.Ingest(segs)
	if err != nil {
		writeError(w, err)
		return
	}
	// Open a new cache generation: every answer cached so far described
	// the pre-ingest contents.
	gen := s.gen.Add(1)
	resp := IngestResponse{Count: len(ids), IDs: make([]uint32, len(ids)), Generation: gen}
	for i, id := range ids {
		resp.IDs[i] = uint32(id)
	}
	writeJSON(w, http.StatusOK, &resp)
}

func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	if err := s.router.Compact(); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, CompactResponse{Status: "ok"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	hits, misses := s.cache.counters()
	total := s.router.Metrics()
	resp := MetricsResponse{
		Kind:          s.router.Kind().String(),
		Shards:        s.router.Shards(),
		Segments:      s.router.Len(),
		UptimeSeconds: time.Since(s.start).Seconds(),
		Requests:      s.requests.Load(),
		CacheHits:     hits,
		CacheMisses:   misses,
		DiskAccesses:  total.DiskAccesses,
		PoolHitRatio:  total.HitRatio(),
		Ingested:      s.router.Ingested(),
		Generation:    s.gen.Load(),
	}
	if hits+misses > 0 {
		resp.CacheHitRatio = float64(hits) / float64(hits+misses)
	}
	for i, m := range s.router.ShardMetrics() {
		sh := s.router.Shard(i)
		cov, _ := sh.Coverage()
		resp.PerShard = append(resp.PerShard, ShardMetricsJSON{
			Shard:        i,
			Segments:     sh.Len(),
			Coverage:     toRectJSON(cov),
			DiskAccesses: m.DiskAccesses,
			SegComps:     m.SegComps,
			NodeComps:    m.NodeComps,
			PoolHits:     m.PoolHits,
			PoolRequests: m.PoolRequests,
		})
	}
	for _, q := range s.router.Profile().Queries {
		resp.Profile = append(resp.Profile, ProfileKindJSON{
			Kind:           q.Kind,
			Count:          q.Count,
			Errors:         q.Errors,
			LatencyP50:     q.LatencyMicros.Quantile(0.5),
			LatencyP95:     q.LatencyMicros.Quantile(0.95),
			LatencyP99:     q.LatencyMicros.Quantile(0.99),
			MeanDiskAccess: q.DiskAccesses.Mean(),
		})
	}
	writeJSON(w, http.StatusOK, &resp)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, HealthResponse{
		Status:   "ok",
		Kind:     s.router.Kind().String(),
		Shards:   s.router.Shards(),
		Segments: s.router.Len(),
	})
}
