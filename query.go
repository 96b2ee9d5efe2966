// Query API v2: context-threaded query methods with per-query
// observability.
//
// Every query of the paper has a *Ctx form that (a) honors
// context.Context cancellation and deadlines at page-fetch granularity —
// a canceled query aborts before its next page request and returns the
// context's error — and (b) returns a QueryStats valuing the query in
// the paper's three currencies (disk accesses, segment comparisons,
// bounding box computations) plus buffer-pool hit statistics and wall
// time. Attribution is exact even under concurrency: the counters are
// carried by a per-query operation threaded through the index, the
// segment table, and the buffer pool, and the database's comparison
// totals are the sum of those operations. Each operation has one entry
// point: its *Ctx form, or its *AppendCtx form where the answer is a
// list. Window is the one context-free method left.
package segdb

import (
	"context"
	"io"
	"sync"

	"segdb/internal/core"
	"segdb/internal/obs"
)

// Observability types, re-exported from the internal obs package.
type (
	// QueryStats values one query in the paper's currencies: disk reads
	// and writes, buffer-pool hits and total page requests, segment
	// comparisons, bounding box/bucket computations, and wall time.
	QueryStats = obs.Stats
	// QueryInfo identifies a query to a Tracer: a per-DB sequence
	// number and the query kind ("window", "nearestk", ...).
	QueryInfo = obs.QueryInfo
	// Tracer receives query lifecycle events (start, finish, page
	// fault, node visit); implementations must be safe for concurrent
	// use. Install one with SetTracer.
	Tracer = obs.Tracer
	// JSONLTracer is a Tracer writing one JSON object per event.
	JSONLTracer = obs.JSONLTracer
	// HistogramSnapshot is a point-in-time copy of a profile histogram.
	HistogramSnapshot = obs.HistogramSnapshot
)

// NewJSONLTracer returns a Tracer that writes one JSON line per event
// to w (query start/finish with final stats, page faults, node visits).
// Writes are serialized internally; after the first write error the
// tracer goes quiet and the error is available from Err.
func NewJSONLTracer(w io.Writer) *JSONLTracer { return obs.NewJSONLTracer(w) }

// SetTracer installs (or, with nil, removes) a query tracer. The swap
// is atomic: a query in flight keeps the tracer it started with, and
// the next query picks up the new one.
func (db *DB) SetTracer(t Tracer) {
	if t == nil {
		db.trc.Store(nil)
		return
	}
	db.trc.Store(&tracerBox{t: t})
}

// begin opens a per-query observation. It reads only atomic state (the
// tracer pointer, the degraded flag), so it needs no lock — staged-mode
// queries call it with nothing held. Ops are recycled through a pool —
// finish releases them — so with a nil tracer and a background context a
// warm query allocates nothing here; every per-counter charge on the hot
// path is a nil-checked add to a field of the query's own op.
func (db *DB) begin(ctx context.Context, qk queryKind) *obs.Op {
	o := obs.Begin(ctx, db.tracerNow(), obs.QueryInfo{
		ID:   db.qid.Add(1),
		Kind: qk.String(),
	})
	o.SetDegraded(db.degraded.Load())
	return o
}

// finish closes the observation, folds the query's comparisons into the
// ledger and the query into the per-kind profile, recycles the op, and
// returns the final stats alongside err. The caller must not touch o
// afterwards.
func (db *DB) finish(qk queryKind, o *obs.Op, err error) (QueryStats, error) {
	st := o.Finish(err)
	o.Release()
	db.ledger.Fold(st)
	db.prof[qk].Record(st.Wall, st.DiskAccesses(), err)
	return st, err
}

// run is the single internal entry point of the query API: it acquires
// the read side (a pinned immutable snapshot in staged-ingest mode, the
// reader lock otherwise), opens the per-query observation with begin
// (stats sink, tracer start event, degraded-mode flag), invokes the
// query body with the read view and the op, and closes the observation
// with finish (tracer finish event, per-kind profile fold, op
// recycling).
//
// Every single-query method routes through run (Window through
// WindowCtx), so QueryStats accounting and tracing behave the same for
// every query. The two multi-op calls — WindowBatchCtx, which opens one
// observation per rectangle under a single read acquisition, and
// OverlayCtx, which must acquire an ordered pair of databases — are the
// only paths that use the begin/finish pair directly. Every query, those
// two included, runs to completion on the calling goroutine.
//
// q must not escape its op; run's closure argument is non-escaping, so
// warm queries through run stay allocation-free (pinned by the
// AllocsPerRun tests in alloc_test.go).
func (db *DB) run(ctx context.Context, qk queryKind, q func(ix core.Index, o *obs.Op) error) (QueryStats, error) {
	h := db.acquireRead()
	defer h.release()
	o := db.begin(ctx, qk)
	o.SetEpoch(h.version())
	return db.finish(qk, o, q(h.index(), o))
}

// WindowCtx is Window (query 5) with cancellation and per-query stats.
// A canceled or expired ctx aborts the query before its next page fetch
// and returns ctx's error; the returned stats cover the work done up to
// that point.
func (db *DB) WindowCtx(ctx context.Context, r Rect, visit func(SegmentID, Segment) bool) (QueryStats, error) {
	return db.run(ctx, qkWindow, func(ix core.Index, o *obs.Op) error {
		return ix.WindowObs(r, visit, o)
	})
}

// WindowHit is one result of an append-form window query: a segment id
// with its geometry.
type WindowHit struct {
	ID  SegmentID
	Seg Segment
}

// windowCollector adapts the append-form window query to the visitor
// contract without a per-query closure: the bound visit function is
// built once per pooled collector, so a warm WindowAppendCtx allocates
// nothing of its own.
type windowCollector struct {
	dst   []WindowHit
	visit func(SegmentID, Segment) bool
}

var windowCollectorPool = sync.Pool{New: func() any {
	c := new(windowCollector)
	c.visit = func(id SegmentID, s Segment) bool {
		c.dst = append(c.dst, WindowHit{ID: id, Seg: s})
		return true
	}
	return c
}}

// WindowAppendCtx is WindowCtx collecting every hit into dst and
// returning the extended slice. Passing the previous call's buffer
// (truncated with dst[:0]) runs repeated window queries without
// allocating results once the buffer has grown to the largest answer
// set.
func (db *DB) WindowAppendCtx(ctx context.Context, r Rect, dst []WindowHit) ([]WindowHit, QueryStats, error) {
	st, err := db.run(ctx, qkWindow, func(ix core.Index, o *obs.Op) error {
		c := windowCollectorPool.Get().(*windowCollector)
		c.dst = dst
		werr := ix.WindowObs(r, c.visit, o)
		dst, c.dst = c.dst, nil
		windowCollectorPool.Put(c)
		return werr
	})
	return dst, st, err
}

// NearestCtx returns the segment closest to p (query 3), with
// cancellation and per-query stats. Found is false only for an empty
// database.
func (db *DB) NearestCtx(ctx context.Context, p Point) (NearestResult, QueryStats, error) {
	var res NearestResult
	st, err := db.run(ctx, qkNearest, func(ix core.Index, o *obs.Op) error {
		var rerr error
		res, rerr = core.FirstNearestObs(ix, p, o)
		return rerr
	})
	return res, st, err
}

// NearestKAppendCtx appends up to k segments, ordered by increasing
// distance from p (incremental distance ranking — "find the nearest
// three subway lines"), to dst and returns the extended slice, with
// cancellation and per-query stats. A nil dst allocates the result;
// passing the previous call's buffer (truncated with dst[:0]) runs
// repeated nearest-neighbor queries without allocating a result slice
// per call.
func (db *DB) NearestKAppendCtx(ctx context.Context, p Point, k int, dst []NearestResult) ([]NearestResult, QueryStats, error) {
	st, err := db.run(ctx, qkNearestK, func(ix core.Index, o *obs.Op) error {
		var rerr error
		dst, rerr = ix.NearestKAppendObs(p, k, dst, o)
		return rerr
	})
	return dst, st, err
}

// IncidentAtCtx visits the segments having an endpoint exactly at p
// (query 1), with cancellation and per-query stats.
func (db *DB) IncidentAtCtx(ctx context.Context, p Point, visit func(SegmentID, Segment) bool) (QueryStats, error) {
	return db.run(ctx, qkIncidentAt, func(ix core.Index, o *obs.Op) error {
		return core.IncidentAtObs(ix, p, visit, o)
	})
}

// OtherEndpointCtx visits the segments incident at the other endpoint
// of segment id, given one endpoint p (query 2), with cancellation and
// per-query stats.
func (db *DB) OtherEndpointCtx(ctx context.Context, id SegmentID, p Point, visit func(SegmentID, Segment) bool) (QueryStats, error) {
	return db.run(ctx, qkOtherEndpoint, func(ix core.Index, o *obs.Op) error {
		return core.OtherEndpointObs(ix, id, p, visit, o)
	})
}

// EnclosingPolygonCtx returns the boundary of the map face containing p
// (query 4), with cancellation and per-query stats. The database must
// hold a noded planar map for the result to be meaningful.
func (db *DB) EnclosingPolygonCtx(ctx context.Context, p Point) (Polygon, QueryStats, error) {
	var poly Polygon
	st, err := db.run(ctx, qkEnclosingPolygon, func(ix core.Index, o *obs.Op) error {
		var perr error
		poly, perr = core.EnclosingPolygonObs(ix, p, o)
		return perr
	})
	return poly, st, err
}
