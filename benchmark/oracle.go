package main

import (
	"math"
	"sort"

	"segdb"
	"segdb/internal/geom"
)

// The oracle answers queries by scanning the whole map: no index, no
// pool, no cache. It shares only the geometric predicates with the
// program under test.

// modelSeg is one slot of the model set: a segment and whether it is
// still stored.
type modelSeg struct {
	seg  segdb.Segment
	live bool
}

func modelOf(segs []segdb.Segment) []modelSeg {
	m := make([]modelSeg, len(segs))
	for i, s := range segs {
		m[i] = modelSeg{seg: s, live: true}
	}
	return m
}

// scanWindow returns the ascending ids of the live segments meeting r.
// ids[i] is the database id of model slot i.
func scanWindow(model []modelSeg, ids []segdb.SegmentID, r segdb.Rect) []segdb.SegmentID {
	var out []segdb.SegmentID
	for i, ms := range model {
		if ms.live && r.IntersectsSegment(ms.seg) {
			out = append(out, ids[i])
		}
	}
	sortIDs(out)
	return out
}

// scanIncident returns the ascending ids of the live segments with an
// endpoint at p.
func scanIncident(model []modelSeg, ids []segdb.SegmentID, p segdb.Point) []segdb.SegmentID {
	var out []segdb.SegmentID
	for i, ms := range model {
		if ms.live && ms.seg.HasEndpoint(p) {
			out = append(out, ids[i])
		}
	}
	sortIDs(out)
	return out
}

// scanNearest returns the k smallest squared distances from p, ascending.
func scanNearest(model []modelSeg, p segdb.Point, k int) []float64 {
	d := make([]float64, 0, len(model))
	for _, ms := range model {
		if ms.live {
			d = append(d, geom.DistSqPointSegment(p, ms.seg))
		}
	}
	sort.Float64s(d)
	if len(d) > k {
		d = d[:k]
	}
	return d
}

func sortIDs(ids []segdb.SegmentID) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}

// sameIDs compares two id sets; got is sorted in place.
func sameIDs(got, want []segdb.SegmentID) bool {
	if len(got) != len(want) {
		return false
	}
	sortIDs(got)
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// sameDists compares two ascending distance multisets. Ties may come
// back as different segments, so only the distances are compared.
func sameDists(got, want []float64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-6*math.Max(1, want[i]) {
			return false
		}
	}
	return true
}

func hitIDs(hits []segdb.WindowHit) []segdb.SegmentID {
	ids := make([]segdb.SegmentID, len(hits))
	for i, h := range hits {
		ids[i] = h.ID
	}
	return ids
}

func nearestDists(res []segdb.NearestResult) []float64 {
	d := make([]float64, len(res))
	for i, r := range res {
		d[i] = r.DistSq
	}
	return d
}

// verifyRead checks one read's answer against the scan. Other-endpoint
// and polygon answers have no scan counterpart here and pass; their
// errors still count as failures where they are sent.
func verifyRead(model []modelSeg, ids []segdb.SegmentID, o *op, hits []segdb.WindowHit, nn []segdb.NearestResult) bool {
	switch o.Kind {
	case opWindow:
		return sameIDs(hitIDs(hits), scanWindow(model, ids, o.Rect))
	case opIncident:
		return sameIDs(hitIDs(hits), scanIncident(model, ids, o.P))
	case opNearest:
		return sameDists(nearestDists(nn), scanNearest(model, o.P, o.K))
	}
	return true
}
