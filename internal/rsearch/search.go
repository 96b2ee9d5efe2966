package rsearch

import (
	"math/bits"
	"sync"

	"segdb/internal/core"
	"segdb/internal/geom"
	"segdb/internal/kernel"
	"segdb/internal/knn"
	"segdb/internal/obs"
	"segdb/internal/rpage"
	"segdb/internal/seg"
	"segdb/internal/store"
)

// decodeNode is the store.DecodeFunc for R-tree pages. It is a
// package-level func value so passing it to GetDecodedObs allocates
// nothing on the warm path.
func decodeNode(data []byte) (any, error) { return rpage.DecodeSoA(data) }

// readSoA fetches a node in its decoded struct-of-arrays form through
// the pool's decode-once cache: the page request (hit or miss) is
// charged to o exactly as a byte fetch would be, but a warm page skips
// the binary decode entirely and returns the cached immutable *SoA. The
// caller must not modify the node and owes no release.
func (t *Tree) readSoA(id store.PageID, o *obs.Op) (*rpage.SoA, error) {
	v, err := t.Pool.GetDecodedObs(id, o, decodeNode)
	if err != nil {
		return nil, err
	}
	o.NodeVisit(uint32(id))
	return v.(*rpage.SoA), nil
}

// ChargeComps charges n bounding box computations to both the tree's
// global counter and the per-query sink. Search loops accumulate counts
// locally and flush once per query: two atomic adds total instead of two
// per entry examined, which keeps the observability overhead off the hot
// path.
func (t *Tree) ChargeComps(o *obs.Op, n uint64) {
	if n == 0 {
		return
	}
	t.Comps.Add(n)
	o.NodeComps(n)
}

// WindowObs visits every segment whose geometry intersects r exactly
// once, charging o (nil charges nothing). Each candidate entry costs one
// bounding box computation; each surviving leaf entry costs one segment
// comparison (the exact segment/window test).
func (t *Tree) WindowObs(r geom.Rect, visit func(id seg.ID, s geom.Segment) bool, o *obs.Op) error {
	var seen map[seg.ID]struct{}
	if t.dedup {
		seen = seg.AcquireSeen()
		defer seg.ReleaseSeen(seen)
	}
	cur := t.Segs.Cursor(o)
	defer cur.Close()
	var examined uint64
	_, err := t.window(t.Root, r, seen, visit, o, cur, &examined)
	t.ChargeComps(o, examined)
	return err
}

func (t *Tree) window(id store.PageID, r geom.Rect, seen map[seg.ID]struct{}, visit func(seg.ID, geom.Segment) bool, o *obs.Op, cur *seg.Cursor, examined *uint64) (bool, error) {
	n, err := t.readSoA(id, o)
	if err != nil {
		if store.IsUnavailable(err) {
			// Degraded mode: the node's page is quarantined. Skip the whole
			// subtree but keep visiting siblings — partial results, with the
			// skip already charged to o by the pool.
			return true, nil
		}
		return false, err
	}
	// The per-entry rect-vs-window tests run as one branch-free kernel
	// call per 64-entry chunk; only the hits are walked, in ascending
	// entry order (so traversal order — and with it page access order —
	// matches the scalar loop exactly). The examined count stays
	// per-entry-identical to the scalar loop via the counted watermark:
	// every early return charges the entries up to and including the one
	// it returned from, a completed chunk charges all of its entries.
	N := n.Len()
	counted := 0
	for base := 0; base < N; base += kernel.LaneWidth {
		end := base + kernel.LaneWidth
		if end > N {
			end = N
		}
		var m uint64
		if n.Packed != nil {
			m = kernel.IntersectMaskPacked(n.Packed[base:end], r)
		} else {
			m = kernel.IntersectMask(n.Xmin[base:end], n.Ymin[base:end], n.Xmax[base:end], n.Ymax[base:end], r)
		}
		var cm uint64
		if n.Leaf && m != 0 {
			// Containment fast path: a leaf rect fully inside the window
			// bounds a piece of its segment that is also inside, so the
			// exact segment/window clip below is guaranteed to pass and
			// can be skipped. This changes no counter — the clip test is
			// not a charged comparison.
			if n.Packed != nil {
				cm = kernel.ContainsMaskPacked(n.Packed[base:end], r)
			} else {
				cm = kernel.ContainsMask(n.Xmin[base:end], n.Ymin[base:end], n.Xmax[base:end], n.Ymax[base:end], r)
			}
		}
		for ; m != 0; m &= m - 1 {
			i := base + bits.TrailingZeros64(m)
			if n.Leaf {
				sid := seg.ID(n.Ptr[i])
				if seen != nil {
					if _, dup := seen[sid]; dup {
						continue
					}
				}
				s, err := cur.Get(sid)
				if err != nil {
					if store.IsUnavailable(err) {
						continue // degraded: this segment's table page is gone
					}
					*examined += uint64(i + 1 - counted)
					return false, err
				}
				if cm>>uint(i-base)&1 == 0 && !r.IntersectsSegment(s) {
					continue
				}
				if seen != nil {
					seen[sid] = struct{}{}
				}
				if !visit(sid, s) {
					*examined += uint64(i + 1 - counted)
					return false, nil
				}
				continue
			}
			cont, err := t.window(store.PageID(n.Ptr[i]), r, seen, visit, o, cur, examined)
			if err != nil || !cont {
				*examined += uint64(i + 1 - counted)
				return cont, err
			}
		}
		*examined += uint64(end - counted)
		counted = end
	}
	return true, nil
}

// nnEntry is the payload of a k-NN queue item: either a node awaiting
// expansion or a fully resolved segment.
type nnEntry struct {
	isSeg bool
	ptr   uint32
	s     geom.Segment // valid when isSeg
}

// nnScratch is the pooled working memory of one nearest-neighbor search:
// the queue and the lower-bound lanes MinDistLB writes into.
type nnScratch struct {
	q    []knn.Item[nnEntry]
	dist []float64
}

var nnPool = sync.Pool{New: func() any { return new(nnScratch) }}

// NearestKAppendObs appends to dst up to k segments in increasing
// distance from p and returns the extended slice, charging o (nil
// charges nothing). It is the incremental priority-queue search of Hoel
// & Samet [11]: nodes and segments are ordered by distance and emitted
// one at a time. The queue backing array, the lower-bound lanes and the
// duplicate set are pooled, so with a reused dst a warm query's search
// machinery allocates nothing.
func (t *Tree) NearestKAppendObs(p geom.Point, k int, dst []core.NearestResult, o *obs.Op) ([]core.NearestResult, error) {
	base := len(dst)
	var examined uint64
	defer func() { t.ChargeComps(o, examined) }()
	sc := nnPool.Get().(*nnScratch)
	q, dist := sc.q[:0], sc.dist
	defer func() { sc.q, sc.dist = q[:0], dist; nnPool.Put(sc) }()
	var seen map[seg.ID]struct{}
	if t.dedup {
		seen = seg.AcquireSeen()
		defer seg.ReleaseSeen(seen)
	}
	cur := t.Segs.Cursor(o)
	defer cur.Close()
	knn.Push(&q, 0, nnEntry{ptr: uint32(t.Root)})
	for len(q) > 0 && len(dst)-base < k {
		it := knn.Pop(&q)
		if it.V.isSeg {
			dst = append(dst, core.NearestResult{
				ID:     seg.ID(it.V.ptr),
				Seg:    it.V.s,
				DistSq: it.DistSq,
				Found:  true,
			})
			continue
		}
		n, err := t.readSoA(store.PageID(it.V.ptr), o)
		if err != nil {
			if store.IsUnavailable(err) {
				continue // degraded: skip the quarantined subtree
			}
			return dst, err
		}
		N := n.Len()
		if n.Leaf {
			for i := 0; i < N; i++ {
				examined++
				sid := seg.ID(n.Ptr[i])
				if seen != nil {
					if _, dup := seen[sid]; dup {
						continue
					}
					seen[sid] = struct{}{}
				}
				s, err := cur.Get(sid)
				if err != nil {
					if store.IsUnavailable(err) {
						continue // degraded: segment's table page is gone
					}
					return dst, err
				}
				knn.Push(&q, geom.DistSqPointSegment(p, s), nnEntry{isSeg: true, ptr: n.Ptr[i], s: s})
			}
			continue
		}
		// Internal node: the k-NN lower bounds for every child come from
		// one branch-free MinDistLB sweep over the coordinate lanes
		// (bit-equivalent to per-entry Rect.DistSqToPoint), then the
		// children are pushed in entry order, so pop order and page
		// access order match the scalar loop exactly.
		if cap(dist) < N {
			dist = make([]float64, N)
		}
		dist = dist[:N]
		kernel.MinDistLB(n.Xmin, n.Ymin, n.Xmax, n.Ymax, p, dist)
		examined += uint64(N)
		for i := 0; i < N; i++ {
			knn.Push(&q, dist[i], nnEntry{ptr: n.Ptr[i]})
		}
	}
	return dst, nil
}
