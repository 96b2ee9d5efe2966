package kernel

import "segdb/internal/geom"

// This file holds the always-compiled scalar reference implementations.
// They call the geom.Rect predicates entry by entry — the exact code the
// query paths ran before the SoA refactor — and exist so tests can
// assert the branch-free kernels are bit-equivalent, and so a
// `-tags kernelref` build can swap them in for the exported kernels and
// run the whole suite against the scalar forms.

// RefIntersectMask is the scalar reference for IntersectMask.
func RefIntersectMask(xmin, ymin, xmax, ymax []int32, q geom.Rect) uint64 {
	n := len(xmin)
	if n > LaneWidth {
		n = LaneWidth
	}
	var m uint64
	for i := 0; i < n; i++ {
		r := geom.Rect{
			Min: geom.Point{X: xmin[i], Y: ymin[i]},
			Max: geom.Point{X: xmax[i], Y: ymax[i]},
		}
		if r.Intersects(q) {
			m |= 1 << uint(i)
		}
	}
	return m
}

// RefContainsMask is the scalar reference for ContainsMask.
func RefContainsMask(xmin, ymin, xmax, ymax []int32, q geom.Rect) uint64 {
	n := len(xmin)
	if n > LaneWidth {
		n = LaneWidth
	}
	var m uint64
	for i := 0; i < n; i++ {
		r := geom.Rect{
			Min: geom.Point{X: xmin[i], Y: ymin[i]},
			Max: geom.Point{X: xmax[i], Y: ymax[i]},
		}
		if q.ContainsRect(r) {
			m |= 1 << uint(i)
		}
	}
	return m
}

// RefIntersectMaskPacked is the scalar reference for
// IntersectMaskPacked: it unpacks every entry and runs the geom
// predicate.
func RefIntersectMaskPacked(packed []uint64, q geom.Rect) uint64 {
	n := len(packed)
	if n > LaneWidth {
		n = LaneWidth
	}
	var m uint64
	for i := 0; i < n; i++ {
		if UnpackRect(packed[i]).Intersects(q) {
			m |= 1 << uint(i)
		}
	}
	return m
}

// RefContainsMaskPacked is the scalar reference for ContainsMaskPacked.
func RefContainsMaskPacked(packed []uint64, q geom.Rect) uint64 {
	n := len(packed)
	if n > LaneWidth {
		n = LaneWidth
	}
	var m uint64
	for i := 0; i < n; i++ {
		if q.ContainsRect(UnpackRect(packed[i])) {
			m |= 1 << uint(i)
		}
	}
	return m
}

// RefMinDistLB is the scalar reference for MinDistLB.
func RefMinDistLB(xmin, ymin, xmax, ymax []int32, p geom.Point, out []float64) {
	for i := range xmin {
		r := geom.Rect{
			Min: geom.Point{X: xmin[i], Y: ymin[i]},
			Max: geom.Point{X: xmax[i], Y: ymax[i]},
		}
		out[i] = r.DistSqToPoint(p)
	}
}

// RefChooseSubtreeOverlap is the scalar reference for
// ChooseSubtreeOverlap: the R*-tree's candidate-by-sibling loop over the
// geom.Rect operations, as the insert path ran it before the kernel,
// evaluating every one of the len·(len−1) pairs.
func RefChooseSubtreeOverlap(xmin, ymin, xmax, ymax []int32, r geom.Rect) (int, int64) {
	rect := func(i int) geom.Rect {
		return geom.Rect{
			Min: geom.Point{X: xmin[i], Y: ymin[i]},
			Max: geom.Point{X: xmax[i], Y: ymax[i]},
		}
	}
	best := 0
	bestOverlap, bestEnlarge, bestArea := int64(-1), int64(0), int64(0)
	for i := range xmin {
		e := rect(i)
		enlarged := e.Union(r)
		var d int64
		for j := range xmin {
			if j == i {
				continue
			}
			o := rect(j)
			d += enlarged.OverlapArea(o) - e.OverlapArea(o)
		}
		enlarge := enlarged.Area() - e.Area()
		area := e.Area()
		if bestOverlap < 0 || d < bestOverlap ||
			(d == bestOverlap && (enlarge < bestEnlarge ||
				(enlarge == bestEnlarge && area < bestArea))) {
			best, bestOverlap, bestEnlarge, bestArea = i, d, enlarge, area
		}
	}
	return best, bestOverlap
}
