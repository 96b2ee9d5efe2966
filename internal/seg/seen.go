package seg

import (
	"slices"
	"sync"

	"segdb/internal/geom"
	"segdb/internal/store"
)

// Seen is one query's duplicate-suppression set where a segment is stored
// more than once (R+/k-d-B leaves, PMR blocks, grid cells): a bitmap over
// the table's dense slots plus the words set, so ReleaseSeen clears only
// what the query added (DESIGN "Node layout & kernels"). An id past the
// set's bound is never recorded, so a corrupt pointer cannot grow it.
type Seen struct {
	bits    []uint64
	touched []uint32 // the nonzero words of bits
}

// seenPool recycles sets, whose whole capacity is zero between queries.
var seenPool = sync.Pool{New: func() any { return new(Seen) }}

// AcquireSeen returns an empty set for the ids below n (the table's Len).
func AcquireSeen(n int) *Seen {
	s := seenPool.Get().(*Seen)
	s.bits = slices.Grow(s.bits[:0], (n+63)>>6)[:(n+63)>>6]
	return s
}

// Has reports whether id was added.
func (s *Seen) Has(id ID) bool {
	w := int(id >> 6)
	return w < len(s.bits) && s.bits[w]&(1<<(id&63)) != 0
}

// Add records id unless it is past the set's bound.
func (s *Seen) Add(id ID) {
	if w := int(id >> 6); w < len(s.bits) {
		if s.bits[w] == 0 {
			s.touched = append(s.touched, uint32(w))
		}
		s.bits[w] |= 1 << (id & 63)
	}
}

// ReleaseSeen zeroes the words s touched and returns it to the pool.
func ReleaseSeen(s *Seen) {
	for _, w := range s.touched {
		s.bits[w] = 0
	}
	s.touched = s.touched[:0]
	seenPool.Put(s)
}

// Visit passes visit, in order, each of ids not yet in s that meets r,
// adding it (check, fetch, then mark). A candidate on a quarantined table
// page is skipped (degraded mode); any other fetch error ends the walk.
// It reports whether visit asked for more.
func (s *Seen) Visit(ids []ID, r geom.Rect, cur *Cursor, visit func(ID, geom.Segment) bool) (bool, error) {
	for _, id := range ids {
		if s.Has(id) {
			continue
		}
		sg, err := cur.Get(id)
		if err != nil && !store.IsUnavailable(err) {
			return false, err
		}
		if err == nil && r.IntersectsSegment(sg) {
			s.Add(id)
			if !visit(id, sg) {
				return false, nil
			}
		}
	}
	return true, nil
}

// Fetch is the k-NN searches' check, mark, then fetch: it adds id and
// fetches it through cur. ok is false for an id already in s and for one
// on a quarantined table page (degraded mode).
func (s *Seen) Fetch(id ID, cur *Cursor) (sg geom.Segment, ok bool, err error) {
	if s.Has(id) {
		return sg, false, nil
	}
	s.Add(id)
	if sg, err = cur.Get(id); err != nil && store.IsUnavailable(err) {
		return sg, false, nil
	}
	return sg, err == nil, err
}
