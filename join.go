package segdb

import (
	"context"
	"errors"

	"segdb/internal/bulk"
	"segdb/internal/core"
	"segdb/internal/geom"
	"segdb/internal/obs"
	"segdb/internal/pmr"
	"segdb/internal/seg"
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
// out as the PMR quadtree's strength: with parallelism 1 and both
// databases PMR quadtrees, they are joined by a synchronized sequential
// merge of their linear quadtrees (the merge is inherently sequential,
// so parallel requests always take the fan-out path). Any other
// combination falls back to an index nested-loop join — each outer
// segment of db probes other's index with a window query — whose outer
// segments are fanned across parallelism workers (<= 0 means
// GOMAXPROCS).
//
// visit receives the two segment IDs (first from db, second from other)
// and their geometries, once per unordered intersecting pair; with
// parallelism > 1 it may be invoked from several goroutines at once and
// pairs arrive in no particular order. Returning false stops the
// overlay early with a nil error. Canceling ctx aborts the join before
// its next page fetch and returns ctx's error.
//
// The returned QueryStats is the whole join's cost (all workers charge
// the one operation; the counter totals are those of a sequential
// join). The stats are attributed to db's profile under kind "overlay".
// OverlayCtx holds both databases' read acquisitions (reader locks, or
// pinned snapshots in staged-ingest mode), so it runs concurrently with
// queries, and in staged mode also with writes — the join sees one
// consistent version of each database.
func (db *DB) OverlayCtx(ctx context.Context, other *DB, parallelism int, visit func(idA, idB SegmentID, sA, sB Segment) bool) (QueryStats, error) {
	ha, hb, release := pairAcquire(db, other)
	defer release()
	o := db.begin(ctx, qkOverlay)
	o.SetEpoch(ha.version())
	err := overlayObs(ha.index(), hb.index(), normalizeParallelism(parallelism), visit, o)
	if errors.Is(err, ErrCanceled) {
		// The visitor stopped the join; that is not a failure.
		err = nil
	}
	return db.finish(qkOverlay, o, err)
}

// overlayObs runs the join over the two already-acquired read views,
// charging o.
func overlayObs(ixA, ixB core.Index, workers int, visit func(idA, idB SegmentID, sA, sB Segment) bool, o *obs.Op) error {
	_, mergedA := ixA.(*staging.Merged)
	_, mergedB := ixB.(*staging.Merged)
	if workers == 1 {
		if a, ok := ixA.(*pmr.Tree); ok {
			if b, ok := ixB.(*pmr.Tree); ok {
				return pmr.JoinObs(a, b, visit, o)
			}
		}
		if mergedA || mergedB {
			// A merged view's table retains slots the snapshot no longer
			// answers for (tombstoned or staged-deleted segments), so the
			// outer relation must be enumerated through the index.
			return core.JoinLiveNestedLoopObs(ixA, ixB, visit, o)
		}
		return core.JoinNestedLoopObs(ixA, ixB, visit, o)
	}
	if mergedA || mergedB {
		return overlayLiveParallel(ixA, ixB, workers, visit, o)
	}
	outer := ixA.Table()
	return bulk.ParallelRange(outer.Len(), workers, func(i int) error {
		idA := seg.ID(i)
		sA, err := outer.GetObs(idA, o)
		if err != nil {
			return err
		}
		return overlayProbe(ixB, idA, sA, visit, o)
	})
}

// overlayLiveParallel is the parallel nested-loop join for snapshot
// views: the outer relation is materialized by one world-window
// traversal (exactly the enumeration the sequential live join performs,
// so the counter totals match), then the probes fan out across the
// worker pool.
func overlayLiveParallel(ixA, ixB core.Index, workers int, visit func(idA, idB SegmentID, sA, sB Segment) bool, o *obs.Op) error {
	type outerSeg struct {
		id SegmentID
		s  Segment
	}
	var outer []outerSeg
	if err := ixA.WindowObs(geom.World(), func(id SegmentID, s Segment) bool {
		outer = append(outer, outerSeg{id: id, s: s})
		return true
	}, o); err != nil {
		return err
	}
	return bulk.ParallelRange(len(outer), workers, func(i int) error {
		return overlayProbe(ixB, outer[i].id, outer[i].s, visit, o)
	})
}

// overlayProbe window-probes the inner index with one outer segment's
// bounding box, confirming exact intersection per hit.
func overlayProbe(inner core.Index, idA SegmentID, sA Segment, visit func(idA, idB SegmentID, sA, sB Segment) bool, o *obs.Op) error {
	canceled := false
	err := inner.WindowObs(sA.Bounds(), func(idB SegmentID, sB Segment) bool {
		// Window guarantees sB intersects sA's bounding box; confirm
		// the segments themselves intersect.
		if !geom.SegmentsIntersect(sA, sB) {
			return true
		}
		if !visit(idA, idB, sA, sB) {
			canceled = true
			return false
		}
		return true
	}, o)
	if err != nil {
		return err
	}
	if canceled {
		return ErrCanceled
	}
	return nil
}

// Overlay is a convenience wrapper over OverlayCtx with a background
// context, parallelism 1, and the stats discarded — the sequential
// overlay of the paper's §7.
func (db *DB) Overlay(other *DB, visit func(idA, idB SegmentID, sA, sB Segment) bool) error {
	_, err := db.OverlayCtx(context.Background(), other, 1, visit)
	return err
}

// OverlayParallel is a convenience wrapper over OverlayCtx with a
// background context and the stats discarded: the nested-loop join's outer segments are fanned across a
// worker pool, so the join's wall-clock cost drops near-linearly with
// parallelism on multi-core hosts while the counter totals stay those
// of a sequential join.
func (db *DB) OverlayParallel(other *DB, parallelism int, visit func(idA, idB SegmentID, sA, sB Segment) bool) error {
	_, err := db.OverlayCtx(context.Background(), other, parallelism, visit)
	return err
}
