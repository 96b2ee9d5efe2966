// Package bulk is the shared front end of the bulk-load pipeline: the
// entry type, the ordered table fetch and the Morton-order sort that the
// per-index bottom-up builders (rstar.BulkLoad, rplus.BulkLoad,
// pmr.BulkLoad, grid.BulkLoad) share.
//
// A bulk build runs to completion on the goroutine that called it: every
// sort is a strict total order and every page write happens in one
// deterministic sequence, so a build produces a byte-identical disk
// image for any GOMAXPROCS setting — which the facade's determinism
// tests assert by comparing saved images.
package bulk

import (
	"cmp"
	"slices"

	"segdb/internal/geom"
	"segdb/internal/obs"
	"segdb/internal/seg"
)

// Entry pairs a stored segment with its table ID — the unit the sort and
// partition phases operate on.
type Entry struct {
	ID  seg.ID
	Seg geom.Segment
}

// Fetch reads the segments for ids from the table in order, charging o
// a segment comparison each. The scan is sequential: table pages are laid
// out in append order, so a 16-page pool already turns this into one read
// per table page.
func Fetch(table *seg.Table, ids []seg.ID, o *obs.Op) ([]Entry, error) {
	out := make([]Entry, len(ids))
	for i, id := range ids {
		s, err := table.GetObs(id, o)
		if err != nil {
			return nil, err
		}
		out[i] = Entry{ID: id, Seg: s}
	}
	return out, nil
}

// MortonKey returns the full-resolution Morton code of the segment's
// midpoint — the sort key of the Morton-order front end (PMR and grid
// partitioning touch mostly-contiguous memory when entries arrive in
// this order). Ties between segments sharing a midpoint cell must be
// broken by ID.
func MortonKey(s geom.Segment) uint64 {
	mid := geom.Point{
		X: int32((int64(s.P1.X) + int64(s.P2.X)) / 2),
		Y: int32((int64(s.P1.Y) + int64(s.P2.Y)) / 2),
	}
	lo, _ := geom.MakeCode(mid, geom.MaxDepth).MortonRange()
	return lo
}

// SortByMorton sorts entries into Morton (Z-) order of their midpoints,
// tie-broken by ID so the order is a strict total order. Each key is
// computed once, not once per comparison.
func SortByMorton(entries []Entry) {
	type keyed struct {
		key uint64
		e   Entry
	}
	ks := make([]keyed, len(entries))
	for i, e := range entries {
		ks[i] = keyed{MortonKey(e.Seg), e}
	}
	slices.SortFunc(ks, func(a, b keyed) int {
		if c := cmp.Compare(a.key, b.key); c != 0 {
			return c
		}
		return cmp.Compare(a.e.ID, b.e.ID)
	})
	for i, k := range ks {
		entries[i] = k.e
	}
}
