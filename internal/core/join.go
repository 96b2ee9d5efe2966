package core

import (
	"segdb/internal/geom"
	"segdb/internal/obs"
	"segdb/internal/seg"
)

// JoinLiveNestedLoopObs is JoinNestedLoopObs with the outer relation
// enumerated *through the index* instead of by a raw table scan: a
// world-window traversal of a yields exactly the live segments — those
// neither deleted nor tombstoned by a staging tier — so the join is
// correct for indexes with deletions and for merged snapshot views,
// where the table retains slots the index no longer answers for. Each
// live outer segment probes b with a window query on its bounding box,
// exactly like JoinNestedLoopObs.
func JoinLiveNestedLoopObs(a, b Index, visit func(idA, idB seg.ID, sA, sB geom.Segment) bool, o *obs.Op) error {
	var innerErr error
	stopped := false
	err := a.WindowObs(geom.World(), func(idA seg.ID, sA geom.Segment) bool {
		innerErr = b.WindowObs(sA.Bounds(), func(idB seg.ID, sB geom.Segment) bool {
			if !geom.SegmentsIntersect(sA, sB) {
				return true
			}
			if !visit(idA, idB, sA, sB) {
				stopped = true
				return false
			}
			return true
		}, o)
		return innerErr == nil && !stopped
	}, o)
	if innerErr != nil {
		return innerErr
	}
	return err
}

// JoinNestedLoopObs finds every intersecting pair of segments between two
// indexes with an index nested-loop join: the outer relation (a's segment
// table) is scanned in storage order and each segment probes b with a
// window query on its bounding box. This is the natural join strategy for
// the R-tree variants, whose data-dependent decompositions cannot be
// merged block-by-block the way two aligned PMR quadtrees can (§7 of the
// paper). The inner probes land wherever the outer relation's storage
// order dictates, so their page traffic is far less sequential than the
// PMR merge join's.
//
// The scan skips the table's dead slots (Table.Live), so a's index must
// answer for every live one: true of an index the facade maintains in
// place, not of a merged snapshot view, which JoinLiveNestedLoopObs
// serves.
//
// visit is called exactly once per unordered intersecting pair (idA from
// a, idB from b); returning false stops the join. The outer table scan
// and every inner window probe charge o.
func JoinNestedLoopObs(a, b Index, visit func(idA, idB seg.ID, sA, sB geom.Segment) bool, o *obs.Op) error {
	outer := a.Table()
	for i := 0; i < outer.Len(); i++ {
		idA := seg.ID(i)
		if !outer.Live(idA) {
			continue
		}
		sA, err := outer.GetObs(idA, o)
		if err != nil {
			return err
		}
		stopped := false
		err = b.WindowObs(sA.Bounds(), func(idB seg.ID, sB geom.Segment) bool {
			// Window guarantees sB intersects sA's bounding box; confirm
			// the segments themselves intersect.
			if !geom.SegmentsIntersect(sA, sB) {
				return true
			}
			if !visit(idA, idB, sA, sB) {
				stopped = true
				return false
			}
			return true
		}, o)
		if err != nil {
			return err
		}
		if stopped {
			return nil
		}
	}
	return nil
}
