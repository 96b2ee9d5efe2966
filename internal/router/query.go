package router

import (
	"cmp"
	"context"
	"slices"
	"sync"
	"time"

	"segdb"
	"segdb/internal/core"
)

// The Router's query surface mirrors the DB's Ctx-first API: every
// method takes a context, fans across the shards whose coverage
// rectangle can contribute, merges the partial answers into global-ID
// space, and returns the summed per-shard QueryStats (counter fields
// are added; Wall is the router's own fan-out+merge wall time, since
// summing per-shard wall times would report busy time, not latency).
//
// Result determinism: a DB delivers window hits in traversal order,
// which depends on the index kind. The Router instead delivers window
// and incident results sorted by ascending global ID, and k-NN results
// by ascending (distance, global ID) — total orders, so the same query
// over the same Router always yields the same sequence regardless of
// shard count.
//
// One behavioral divergence from the DB: the Router materializes each
// shard's answer before invoking the caller's visitor, so a visitor
// returning false stops delivery but not traversal — the QueryStats
// still price the full answer. Callers that need traversal-level early
// exit should query a shard DB directly.
//
// The Router serves only the queries the HTTP server serves: window,
// k-nearest and incidence. Polygon tracing walks a face boundary
// through globally adjacent segments, a topology no per-shard index
// holds; route it, like other-endpoint traversal and overlay, to an
// unsharded DB.

// windowBufPool recycles the hit buffers of the visitor-form queries
// (WindowBatchCtx, IncidentAtCtx) and sortWindowHits' copy:
// the merged answer lands in a recycled slice, so warm routed queries
// allocate only when an answer outgrows every pooled buffer.
var windowBufPool = sync.Pool{New: func() any { return new([]segdb.WindowHit) }}

// addCounters folds src's counter fields into dst, leaving dst.Wall
// alone (record stamps the router-level wall time at the end).
func addCounters(dst *segdb.QueryStats, src segdb.QueryStats) {
	wall := dst.Wall
	*dst = dst.Add(src)
	dst.Wall = wall
}

// xlate translates a shard-local ID to a global ID through view v,
// falling back to the shard's current view when the local ID postdates
// v: a shard query pins its snapshot after the fan-out loaded v, so it
// can return a segment ingested in between. Ingest publishes routing
// metadata before the shard absorbs a segment, so the current view
// always covers every queryable local ID.
func xlate(sh *Shard, v *shardView, lid segdb.SegmentID) segdb.SegmentID {
	if int(lid) < len(v.global) {
		return v.global[lid]
	}
	return sh.view.Load().global[lid]
}

// WindowAppendCtx runs the window query across every shard whose
// coverage intersects r, appending the merged hits (global IDs,
// ascending) to dst and returning the extended slice. Passing a reused
// buffer makes warm repeated windows allocation-light.
func (r *Router) WindowAppendCtx(ctx context.Context, rect segdb.Rect, dst []segdb.WindowHit) ([]segdb.WindowHit, segdb.QueryStats, error) {
	start := time.Now()
	dst, st, err := r.windowAppend(ctx, rect, dst)
	r.record(qkWindow, start, &st, err)
	return dst, st, err
}

// windowAppend is the shared core of WindowAppendCtx and the
// per-rectangle body of WindowBatchCtx (the batch records under its own
// kind): it queries the shards whose coverage intersects rect in shard
// order, appending each shard's hits straight into dst, then sorts the
// appended tail by global ID.
func (r *Router) windowAppend(ctx context.Context, rect segdb.Rect, dst []segdb.WindowHit) ([]segdb.WindowHit, segdb.QueryStats, error) {
	var st segdb.QueryStats
	base := len(dst)
	for _, sh := range r.shards {
		v := sh.view.Load()
		if !v.nonempty || !v.coverage.Intersects(rect) {
			continue
		}
		mark := len(dst)
		var sst segdb.QueryStats
		var err error
		dst, sst, err = sh.db.WindowAppendCtx(ctx, rect, dst)
		addCounters(&st, sst)
		if err != nil {
			return dst, st, err
		}
		for i := mark; i < len(dst); i++ {
			dst[i].ID = xlate(sh, v, dst[i].ID)
		}
	}
	sortWindowHits(dst[base:])
	return dst, st, nil
}

var sortKeyPool = sync.Pool{New: func() any { return new([]uint64) }}

// sortWindowHits sorts hits by global ID. It sorts one word per hit,
// the ID above the hit's position, and then moves each hit once: a
// shard's answer arrives in its index's traversal order, not by ID, so
// there are no sorted runs to merge. IDs are unique within one answer,
// so the order is total, and a position fits in 32 bits because there
// are no more hits than IDs.
func sortWindowHits(hits []segdb.WindowHit) {
	if len(hits) < 2 {
		return
	}
	kp, hp := sortKeyPool.Get().(*[]uint64), windowBufPool.Get().(*[]segdb.WindowHit)
	keys := (*kp)[:0]
	for i, h := range hits {
		keys = append(keys, uint64(h.ID)<<32|uint64(i))
	}
	slices.Sort(keys)
	src := append((*hp)[:0], hits...)
	for i, k := range keys {
		hits[i] = src[uint32(k)]
	}
	*kp, *hp = keys, src[:0]
	sortKeyPool.Put(kp)
	windowBufPool.Put(hp)
}

// WindowBatchCtx runs one routed window query per rectangle, in
// rectangle order. stats[q] prices exactly the query over rects[q].
// Returning false from visit ends the batch with a nil error, as in
// DB.WindowBatchCtx.
func (r *Router) WindowBatchCtx(ctx context.Context, rects []segdb.Rect, visit func(query int, id segdb.SegmentID, s segdb.Segment) bool) ([]segdb.QueryStats, error) {
	if len(rects) == 0 {
		return nil, nil
	}
	start := time.Now()
	stats := make([]segdb.QueryStats, len(rects))
	buf := windowBufPool.Get().(*[]segdb.WindowHit)
	var total segdb.QueryStats
	var err error
	stopped := false
	for q := 0; q < len(rects) && err == nil && !stopped; q++ {
		qstart := time.Now()
		var hits []segdb.WindowHit
		hits, stats[q], err = r.windowAppend(ctx, rects[q], (*buf)[:0])
		stats[q].Wall = time.Since(qstart)
		addCounters(&total, stats[q])
		if err == nil {
			for _, h := range hits {
				if !visit(q, h.ID, h.Seg) {
					stopped = true
					break
				}
			}
		}
		*buf = hits[:0]
	}
	windowBufPool.Put(buf)
	r.record(qkWindowBatch, start, &total, err)
	return stats, err
}

// NearestKCtx returns up to k segments across all shards ordered by
// ascending (distance, global ID).
func (r *Router) NearestKCtx(ctx context.Context, p segdb.Point, k int) ([]segdb.NearestResult, segdb.QueryStats, error) {
	start := time.Now()
	res, st, err := r.nearestKAppend(ctx, p, k, nil)
	r.record(qkNearestK, start, &st, err)
	return res, st, err
}

// nearestKAppend merges per-shard k-NN answers: each shard's answer is
// appended, the merged tail sorted by (DistSq, global ID) and cut to k.
// Shards are visited in ascending order of the lower bound
// dist(p, coverage); once k results are kept, any shard whose lower bound
// exceeds the worst kept distance cannot contribute and the remaining
// shards are pruned wholesale (strictly exceeds: an equal bound may still
// supply a lower-global-ID tie, which the merged order prefers).
func (r *Router) nearestKAppend(ctx context.Context, p segdb.Point, k int, dst []segdb.NearestResult) ([]segdb.NearestResult, segdb.QueryStats, error) {
	var st segdb.QueryStats
	if k <= 0 {
		return dst, st, nil
	}
	type cand struct {
		sh *Shard
		v  *shardView
		lb float64
	}
	cands := make([]cand, 0, len(r.shards))
	for _, sh := range r.shards {
		if v := sh.view.Load(); v.nonempty {
			cands = append(cands, cand{sh, v, v.coverage.DistSqToPoint(p)})
		}
	}
	slices.SortFunc(cands, func(a, b cand) int { return cmp.Compare(a.lb, b.lb) })

	base := len(dst)
	for _, c := range cands {
		if len(dst)-base == k && c.lb > dst[len(dst)-1].DistSq {
			break
		}
		mark := len(dst)
		var sst segdb.QueryStats
		var err error
		dst, sst, err = c.sh.db.NearestKAppendCtx(ctx, p, k, dst)
		addCounters(&st, sst)
		if err != nil {
			return dst[:base], st, err
		}
		for i := mark; i < len(dst); i++ {
			dst[i].ID = xlate(c.sh, c.v, dst[i].ID)
		}
		slices.SortFunc(dst[base:], core.CompareNearest)
		if len(dst)-base > k {
			dst = dst[:base+k]
		}
	}
	return dst, st, nil
}

// IncidentAtCtx finds every segment with an endpoint at p, fanning
// across the shards whose coverage contains p and delivering the merged
// hits in ascending global-ID order.
func (r *Router) IncidentAtCtx(ctx context.Context, p segdb.Point, visit func(segdb.SegmentID, segdb.Segment) bool) (segdb.QueryStats, error) {
	start := time.Now()
	var st segdb.QueryStats
	buf := windowBufPool.Get().(*[]segdb.WindowHit)
	hits := (*buf)[:0]
	var ferr error
	for _, sh := range r.shards {
		v := sh.view.Load()
		if !v.nonempty || !v.coverage.ContainsPoint(p) {
			continue
		}
		mark := len(hits)
		sst, err := sh.db.IncidentAtCtx(ctx, p, func(id segdb.SegmentID, s segdb.Segment) bool {
			hits = append(hits, segdb.WindowHit{ID: xlate(sh, v, id), Seg: s})
			return true
		})
		addCounters(&st, sst)
		if err != nil {
			ferr = err
			hits = hits[:mark]
			break
		}
	}
	if ferr == nil {
		sortWindowHits(hits)
		for _, h := range hits {
			if !visit(h.ID, h.Seg) {
				break
			}
		}
	}
	*buf = hits[:0]
	windowBufPool.Put(buf)
	r.record(qkIncidentAt, start, &st, ferr)
	return st, ferr
}
