package rsearch

import (
	"math"
	"math/bits"
	"slices"
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
	o.NodeComps(examined)
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

// cursorSlot marks a queue item's Slot as a node cursor's index; other
// items are segments, and their Slot indexes nnScratch.segs.
const cursorSlot = 1 << 31

// nodeCursor stands in the queue for every child of one expanded node not
// yet taken: their lower bounds are nnScratch.dist[off:off+n] (+Inf once
// taken), their pointers nnScratch.ptrs[off:off+n], and child i orders
// under the push number ref+i reserved at expansion.
type nodeCursor struct{ off, n, ref uint32 }

// nnSeg is a queued segment's payload.
type nnSeg struct {
	id seg.ID
	s  geom.Segment
}

// nnScratch is the pooled working memory of one nearest-neighbor search:
// the queue and the payloads its items index.
type nnScratch struct {
	q       knn.Queue
	dist    []float64
	ptrs    []uint32
	cursors []nodeCursor
	segs    []nnSeg
}

var nnPool = sync.Pool{New: func() any { return new(nnScratch) }}

// queueCursor queues cursor c at its least remaining child, by distance
// and then index, unless it has none or the queue drops it; the least
// child orders before all the others, so dropping it drops them all.
func (sc *nnScratch) queueCursor(c uint32) {
	cr := sc.cursors[c]
	lanes := sc.dist[cr.off : cr.off+cr.n]
	best, bestD := 0, math.Inf(1)
	for i, d := range lanes {
		if d < bestD {
			best, bestD = i, d
		}
	}
	if bestD < math.Inf(1) {
		sc.q.PushBound(bestD, cr.ref+uint32(best), c|cursorSlot)
	}
}

// NearestKAppendObs appends to dst up to k segments in increasing
// distance from p and returns the extended slice, charging o (nil
// charges nothing). It is the incremental priority-queue search of Hoel
// & Samet [11]: nodes and segments are ordered by distance, ties by push
// order, and emitted one at a time. An expanded node queues one cursor
// rather than all its children, and the queue drops whatever could only
// pop after the k-th segment, so the search reads, fetches and counts
// exactly what pushing every child would. The scratch is pooled, so with
// a reused dst a warm query's search machinery allocates nothing.
func (t *Tree) NearestKAppendObs(p geom.Point, k int, dst []core.NearestResult, o *obs.Op) ([]core.NearestResult, error) {
	base := len(dst)
	var examined uint64
	defer func() { o.NodeComps(examined) }()
	sc := nnPool.Get().(*nnScratch)
	sc.q.Reset(k)
	sc.dist, sc.ptrs, sc.cursors, sc.segs = sc.dist[:0], sc.ptrs[:0], sc.cursors[:0], sc.segs[:0]
	defer nnPool.Put(sc)
	var seen map[seg.ID]struct{}
	if t.dedup {
		seen = seg.AcquireSeen()
		defer seg.ReleaseSeen(seen)
	}
	cur := t.Segs.Cursor(o)
	defer cur.Close()
	// The root enters the queue as the only child of a one-entry cursor.
	sc.dist, sc.ptrs = append(sc.dist, 0), append(sc.ptrs, uint32(t.Root))
	sc.cursors = append(sc.cursors, nodeCursor{n: 1, ref: sc.q.Reserve(1)})
	sc.queueCursor(0)
	for sc.q.Len() > 0 && len(dst)-base < k {
		it := sc.q.Pop()
		if it.Slot&cursorSlot == 0 {
			s := sc.segs[it.Slot]
			dst = append(dst, core.NearestResult{ID: s.id, Seg: s.s, DistSq: it.DistSq, Found: true})
			continue
		}
		c := it.Slot &^ cursorSlot
		child := sc.cursors[c].off + it.Ref - sc.cursors[c].ref
		sc.dist[child] = math.Inf(1)
		sc.queueCursor(c)
		n, err := t.readSoA(store.PageID(sc.ptrs[child]), o)
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
				if sc.q.PushExact(geom.DistSqPointSegment(p, s), uint32(len(sc.segs))) {
					sc.segs = append(sc.segs, nnSeg{id: sid, s: s})
				}
			}
			continue
		}
		// Internal node: the k-NN lower bounds for every child come from
		// one branch-free MinDistLB sweep over the coordinate lanes
		// (bit-equivalent to per-entry Rect.DistSqToPoint) into the
		// cursor's lanes, and the children take consecutive push numbers
		// in entry order, so pop order and page access order match
		// pushing them one by one.
		off := len(sc.dist)
		sc.dist = slices.Grow(sc.dist, N)[:off+N]
		kernel.MinDistLB(n.Xmin, n.Ymin, n.Xmax, n.Ymax, p, sc.dist[off:])
		sc.ptrs = append(sc.ptrs, n.Ptr...)
		examined += uint64(N)
		sc.cursors = append(sc.cursors, nodeCursor{off: uint32(off), n: uint32(N), ref: sc.q.Reserve(N)})
		sc.queueCursor(uint32(len(sc.cursors) - 1))
	}
	return dst, nil
}
