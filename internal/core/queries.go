package core

import (
	"fmt"
	"math"
	"sync"

	"segdb/internal/geom"
	"segdb/internal/obs"
	"segdb/internal/seg"
)

// This file implements the five queries of §5 on top of the Index
// interface. Query 3 (nearest line) is provided by each index directly
// since its pruning is structure-specific; the others are generic.

// IncidentAtObs is query 1: given a point that is an endpoint of some
// line segment, find all line segments incident at it. It executes as a
// point query (a degenerate window) followed by an endpoint check on
// each reported segment. Like every query here it charges o; nil charges
// nothing.
func IncidentAtObs(ix Index, p geom.Point, visit func(id seg.ID, s geom.Segment) bool, o *obs.Op) error {
	f := endpointFilterPool.Get().(*endpointFilter)
	f.p, f.visit = p, visit
	err := ix.WindowObs(geom.Rect{Min: p, Max: p}, f.filter, o)
	f.visit = nil
	endpointFilterPool.Put(f)
	return err
}

// endpointFilter passes visit the segments ending at p. Its filter is
// bound once per pooled filter, so a warm IncidentAtObs allocates none.
type endpointFilter struct {
	p             geom.Point
	visit, filter func(seg.ID, geom.Segment) bool
}

var endpointFilterPool = sync.Pool{New: func() any {
	f := new(endpointFilter)
	f.filter = func(id seg.ID, s geom.Segment) bool { return !s.HasEndpoint(f.p) || f.visit(id, s) }
	return f
}}

// OtherEndpointObs is query 2: given segment id and one of its endpoints
// p, find all segments incident at the segment's other endpoint.
func OtherEndpointObs(ix Index, id seg.ID, p geom.Point, visit func(id seg.ID, s geom.Segment) bool, o *obs.Op) error {
	s, err := ix.Table().GetObs(id, o)
	if err != nil {
		return err
	}
	other, ok := s.Other(p)
	if !ok {
		return fmt.Errorf("core: %v is not an endpoint of segment %d", p, id)
	}
	return IncidentAtObs(ix, other, visit, o)
}

// Polygon is the result of query 4: the boundary of the face of the
// polygonal map that encloses the query point, as an ordered list of
// directed edges.
type Polygon struct {
	IDs []seg.ID // segment ids in traversal order (a dead-end edge appears twice)
}

// Size returns the number of boundary edges, the paper's "polygon size".
func (p Polygon) Size() int { return len(p.IDs) }

// maxPolygonEdges guards the traversal against malformed (non-planar)
// input; no face of a ~50k-segment map approaches this bound.
const maxPolygonEdges = 1 << 20

// EnclosingPolygonObs is query 4: find the minimal enclosing polygon of
// point p by locating the nearest line segment (query 3) and then
// traversing the boundary of the face containing p by repeated
// application of query 2, choosing the next edge at each shared endpoint
// by angular order. The nearest-line seed and every boundary-following
// probe charge o.
func EnclosingPolygonObs(ix Index, p geom.Point, o *obs.Op) (Polygon, error) {
	nr, err := FirstNearestObs(ix, p, o)
	if err != nil {
		return Polygon{}, err
	}
	if !nr.Found {
		return Polygon{}, fmt.Errorf("core: enclosing polygon of %v in empty index", p)
	}
	// Orient the starting edge a->b so that p lies to its left (or on it);
	// the traversal then walks the boundary of the face left of a->b.
	a, b := nr.Seg.P1, nr.Seg.P2
	if orientSign(a, b, p) < 0 {
		a, b = b, a
	}
	startID, startA, startB := nr.ID, a, b
	var poly Polygon
	curID := nr.ID
	for {
		poly.IDs = append(poly.IDs, curID)
		if len(poly.IDs) > maxPolygonEdges {
			return Polygon{}, fmt.Errorf("core: polygon traversal from %v did not close", p)
		}
		nextID, nextSeg, err := nextBoundaryEdge(ix, curID, a, b, o)
		if err != nil {
			return Polygon{}, err
		}
		a = b
		b, _ = nextSeg.Other(a)
		curID = nextID
		if curID == startID && a == startA && b == startB {
			return poly, nil
		}
	}
}

// nextBoundaryEdge finds the edge that continues the face boundary after
// arriving at vertex b along a->b: among the segments incident at b
// (query 2), the one whose direction out of b is the first encountered
// when sweeping clockwise from the reverse direction b->a. If the vertex
// is a dead end the reverse edge itself is returned and the traversal
// doubles back.
func nextBoundaryEdge(ix Index, curID seg.ID, a, b geom.Point, o *obs.Op) (seg.ID, geom.Segment, error) {
	st := turnPool.Get().(*turnState)
	st.a, st.b, st.curID, st.bestID, st.bestTurn = a, b, curID, seg.NilID, math.Inf(1)
	st.refAngle = math.Atan2(float64(a.Y-b.Y), float64(a.X-b.X))
	err := IncidentAtObs(ix, b, st.visit, o)
	bestID, bestSeg := st.bestID, st.bestSeg
	turnPool.Put(st)
	if err != nil {
		return seg.NilID, geom.Segment{}, err
	}
	if bestID == seg.NilID {
		// Dead end: double back along the same segment.
		s, err := ix.Table().GetObs(curID, o)
		if err != nil {
			return seg.NilID, geom.Segment{}, err
		}
		return curID, s, nil
	}
	return bestID, bestSeg, nil
}

// turnState is one nextBoundaryEdge probe: the edge a->b arrived along
// and the least clockwise turn out of b so far. Its visit, the consider
// method, is bound once per pooled state, so a step allocates nothing.
type turnState struct {
	a, b               geom.Point
	curID, bestID      seg.ID
	bestSeg            geom.Segment
	refAngle, bestTurn float64
	visit              func(seg.ID, geom.Segment) bool
}

var turnPool = sync.Pool{New: func() any {
	st := new(turnState)
	st.visit = st.consider
	return st
}}

// consider weighs the segment id, incident at b, as the next edge.
func (st *turnState) consider(id seg.ID, s geom.Segment) bool {
	out, _ := s.Other(st.b)
	if id == st.curID && out == st.a {
		return true // the reverse edge: only taken as a last resort
	}
	angle := math.Atan2(float64(out.Y-st.b.Y), float64(out.X-st.b.X))
	turn := math.Mod(st.refAngle-angle, 2*math.Pi)
	if turn < 0 {
		turn += 2 * math.Pi
	}
	if turn == 0 {
		turn = 2 * math.Pi // collinear with the reverse direction: last
	}
	if turn < st.bestTurn {
		st.bestTurn, st.bestID, st.bestSeg = turn, id, s
	}
	return true
}

func orientSign(a, b, c geom.Point) int64 {
	v := (int64(b.X)-int64(a.X))*(int64(c.Y)-int64(a.Y)) -
		(int64(b.Y)-int64(a.Y))*(int64(c.X)-int64(a.X))
	switch {
	case v > 0:
		return 1
	case v < 0:
		return -1
	}
	return 0
}

// WindowQuery is query 5: collect all segments intersecting the window.
// It exists as a convenience wrapper over Index.WindowObs for callers
// that want the matching IDs rather than a callback.
func WindowQuery(ix Index, r geom.Rect) ([]seg.ID, error) {
	var ids []seg.ID
	err := ix.WindowObs(r, func(id seg.ID, _ geom.Segment) bool {
		ids = append(ids, id)
		return true
	}, nil)
	return ids, err
}
