package segdb

import (
	"context"

	"segdb/internal/core"
	"segdb/internal/obs"
	"segdb/internal/pmr"
	"segdb/internal/staging"
)

// pairAcquire acquires the read side of both databases — reader locks
// in allocation order (each DB carries a unique sequence number), so
// two goroutines overlaying the same pair in opposite directions cannot
// deadlock; staged-ingest databases pin a snapshot instead, which
// cannot deadlock regardless of order. The returned handles are in
// (a, b) order and the returned function releases both. A self-overlay
// acquires once.
func pairAcquire(a, b *DB) (ha, hb readHandle, release func()) {
	if a == b {
		h := a.acquireRead()
		return h, h, h.release
	}
	first, second := a, b
	if second.seq < first.seq {
		first, second = second, first
	}
	hf := first.acquireRead()
	hs := second.acquireRead()
	ha, hb = hf, hs
	if first != a {
		ha, hb = hs, hf
	}
	return ha, hb, func() {
		hs.release()
		hf.release()
	}
}

// OverlayCtx finds every pair of intersecting segments between two
// databases — the map-overlay composition that §7 of the paper singles
// out as the PMR quadtree's strength: when both databases are PMR
// quadtrees they are joined by a synchronized sequential merge of their
// linear quadtrees. Any other combination falls back to an index
// nested-loop join — each outer segment of db probes other's index with
// a window query.
//
// visit receives the two segment IDs (first from db, second from other)
// and their geometries, once per unordered intersecting pair, on the
// calling goroutine. Returning false stops the overlay early with a nil
// error. Canceling ctx aborts the join before its next page fetch and
// returns ctx's error.
//
// The returned QueryStats is the whole join's cost, attributed to db's
// profile under kind "overlay". OverlayCtx holds both databases' read
// acquisitions (reader locks, or pinned snapshots in staged-ingest
// mode), so it runs concurrently with queries, and in staged mode also
// with writes — the join sees one consistent version of each database.
func (db *DB) OverlayCtx(ctx context.Context, other *DB, visit func(idA, idB SegmentID, sA, sB Segment) bool) (QueryStats, error) {
	ha, hb, release := pairAcquire(db, other)
	defer release()
	o := db.begin(ctx, qkOverlay)
	o.SetEpoch(ha.version())
	return db.finish(qkOverlay, o, overlay(ha.index(), hb.index(), visit, o))
}

// overlay runs the join over the two already-acquired read views,
// charging o.
func overlay(ixA, ixB core.Index, visit func(idA, idB SegmentID, sA, sB Segment) bool, o *obs.Op) error {
	if a, ok := ixA.(*pmr.Tree); ok {
		if b, ok := ixB.(*pmr.Tree); ok {
			return pmr.JoinObs(a, b, visit, o)
		}
	}
	_, mergedA := ixA.(*staging.Merged)
	_, mergedB := ixB.(*staging.Merged)
	if mergedA || mergedB {
		// A merged view's table retains slots the snapshot no longer
		// answers for (tombstoned or staged-deleted segments), so the
		// outer relation must be enumerated through the index.
		return core.JoinLiveNestedLoopObs(ixA, ixB, visit, o)
	}
	return core.JoinNestedLoopObs(ixA, ixB, visit, o)
}
