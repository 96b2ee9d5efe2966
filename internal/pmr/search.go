package pmr

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
	"segdb/internal/seg"
	"segdb/internal/store"
)

// Query-scratch pools: candidate member buffers, the StoreMBR filter
// lanes, and the nearest-neighbor search's working memory are recycled
// across queries (like the shared duplicate-suppression set,
// seg.AcquireSeen) so warm window/nearest searches allocate nothing.
var (
	membersPool = sync.Pool{New: func() any { return new([]seg.ID) }}
	lanesPool   = sync.Pool{New: func() any { return new(rectLanes) }}
	nearestPool = sync.Pool{New: func() any { return new(nearestScratch) }}
)

// rectLanes holds the stored q-edge rectangles of a scan's candidates as
// struct-of-arrays coordinate lanes, so the StoreMBR filter runs as one
// branch-free kernel sweep per 64 candidates instead of a branchy
// rect-vs-window test per B-tree value.
type rectLanes struct {
	xmin, ymin, xmax, ymax []int32
}

func (ln *rectLanes) push(r geom.Rect) {
	ln.xmin = append(ln.xmin, r.Min.X)
	ln.ymin = append(ln.ymin, r.Min.Y)
	ln.xmax = append(ln.xmax, r.Max.X)
	ln.ymax = append(ln.ymax, r.Max.Y)
}

func (ln *rectLanes) reset() {
	ln.xmin, ln.ymin = ln.xmin[:0], ln.ymin[:0]
	ln.xmax, ln.ymax = ln.xmax[:0], ln.ymax[:0]
}

// allPass is the filter rectangle of a candidate whose stored rect could
// not be decoded: it intersects every query, so the candidate is kept —
// exactly what the scalar filter did by skipping the test.
var allPass = geom.Rect{
	Min: geom.Point{X: math.MinInt32, Y: math.MinInt32},
	Max: geom.Point{X: math.MaxInt32, Y: math.MaxInt32},
}

// filterMembers compacts members, in place and preserving scan order, to
// the candidates whose filter rectangle intersects r, via chunked
// IntersectMask sweeps over the lanes. ln must hold one rectangle per
// member.
func filterMembers(members []seg.ID, ln *rectLanes, r geom.Rect) []seg.ID {
	kept := members[:0]
	N := len(members)
	for base := 0; base < N; base += kernel.LaneWidth {
		end := base + kernel.LaneWidth
		if end > N {
			end = N
		}
		m := kernel.IntersectMask(ln.xmin[base:end], ln.ymin[base:end], ln.xmax[base:end], ln.ymax[base:end], r)
		for ; m != 0; m &= m - 1 {
			kept = append(kept, members[base+bits.TrailingZeros64(m)])
		}
	}
	return kept
}

// WindowObs visits every segment intersecting r exactly once. Like the
// data-driven window decomposition of Aref & Samet used in the paper's
// experiments, it decomposes the window into at most four aligned quadtree
// blocks no smaller than the window and resolves each with one contiguous
// B-tree range scan, so the disk cost is a handful of sequential leaf
// pages rather than a root-to-leaf probe per quadtree node.
//
// A degenerate (point) window short-circuits to direct point location by
// locational key, as QUILT's linear quadtree does: a single bucket
// computation instead of a quadrant descent.
func (t *Tree) WindowObs(r geom.Rect, visit func(id seg.ID, s geom.Segment) bool, o *obs.Op) error {
	cur := t.table.Cursor(o)
	defer cur.Close()
	seen := seg.AcquireSeen(t.table.Len())
	defer seg.ReleaseSeen(seen)
	if r.Min == r.Max {
		return t.pointQuery(r.Min, seen, visit, o, cur)
	}
	// Depth of the smallest aligned blocks at least as large as the
	// window: the window then intersects at most 2 blocks per axis, each
	// containing one of its corners.
	side := r.Width() + 1
	if h := r.Height() + 1; h > side {
		side = h
	}
	depth := 0
	for depth < geom.MaxDepth && int64(geom.BlockSide(depth+1)) >= side {
		depth++
	}
	corners := [4]geom.Point{
		r.Min,
		{X: r.Max.X, Y: r.Min.Y},
		{X: r.Min.X, Y: r.Max.Y},
		r.Max,
	}
	// The blocks already scanned: at most one cover and one leaf a corner.
	var coverBuf, leafBuf [4]geom.Code
	scannedCover, scannedLeaf := coverBuf[:0], leafBuf[:0]
	for _, corner := range corners {
		cover := geom.MakeCode(corner, depth)
		if slices.Contains(scannedCover, cover) {
			continue
		}
		scannedCover = append(scannedCover, cover)
		// A leaf larger than the cover block would not appear in the
		// cover's key range; point location on the corner finds it.
		leaf, ok, err := t.locate(corner, o)
		if err != nil {
			if !store.IsUnavailable(err) {
				return err
			}
			// Degraded mode: point location hit a quarantined page; fall
			// back to scanning the cover block for partial results.
			ok = false
		}
		if ok && leaf.Depth() < depth {
			if slices.Contains(scannedLeaf, leaf) {
				continue
			}
			scannedLeaf = append(scannedLeaf, leaf)
			cont, err := t.scanBlockEntries(leaf, r, seen, visit, o, cur)
			if err != nil || !cont {
				return err
			}
			continue
		}
		cont, err := t.scanBlockEntries(cover, r, seen, visit, o, cur)
		if err != nil || !cont {
			return err
		}
	}
	return nil
}

// scanBlockEntries reports the segments of every q-edge stored under the
// block whose own block intersects r. One bucket computation is charged
// per distinct stored block encountered; one segment comparison per
// candidate segment fetched.
func (t *Tree) scanBlockEntries(c geom.Code, r geom.Rect, seen *seg.Seen, visit func(seg.ID, geom.Segment) bool, o *obs.Op, cur *seg.Cursor) (bool, error) {
	lo, hi := blockRange(c)
	mp := membersPool.Get().(*[]seg.ID)
	members := (*mp)[:0]
	defer func() { *mp = members[:0]; membersPool.Put(mp) }()
	var ln *rectLanes
	if t.cfg.StoreMBR {
		ln = lanesPool.Get().(*rectLanes)
		defer func() { ln.reset(); lanesPool.Put(ln) }()
	}
	var lastBlock geom.Code
	var examined uint64
	defer func() { o.NodeComps(examined) }()
	blockHits, haveBlock := false, false
	if err := t.bt.ScanValues(lo, hi, func(k uint64, v []byte) bool {
		bc := keyCode(k)
		if !haveBlock || bc != lastBlock {
			lastBlock, haveBlock = bc, true
			examined++
			blockHits = bc.Block().Intersects(r)
		}
		if !blockHits {
			return true
		}
		// In the StoreMBR variant the stored q-edge rectangle rejects
		// candidates without a segment-table fetch; the rects are gathered
		// into lanes here and rejected in one batched kernel sweep after
		// the scan, keeping the filter (and its bucket-computation
		// charges) equivalent to the per-value scalar test.
		if ln != nil {
			if qr, ok := decodeQEdgeRect(bc, v); ok {
				examined++
				ln.push(qr)
			} else {
				ln.push(allPass)
			}
		}
		members = append(members, keySeg(k))
		return true
	}, o); err != nil {
		if !store.IsUnavailable(err) {
			return false, err
		}
		// Degraded mode: the scan stopped at a quarantined B-tree page;
		// report the members gathered before it (partial results).
	}
	if ln != nil {
		members = filterMembers(members, ln, r)
	}
	return seen.Visit(members, r, cur, visit)
}

// locate returns the occupied leaf block containing p, if any, via a
// single predecessor search on the locational keys. Empty regions (not
// represented in a linear quadtree) report ok=false.
func (t *Tree) locate(p geom.Point, o *obs.Op) (geom.Code, bool, error) {
	full := geom.MakeCode(p, geom.MaxDepth)
	mlo, _ := full.MortonRange()
	probe := mlo<<36 | uint64(geom.MaxDepth)<<32 | 0xffffffff
	k, ok, err := t.bt.SeekLE(probe, o)
	if err != nil || !ok {
		return 0, false, err
	}
	c := keyCode(k)
	// One bounding bucket computation: does the predecessor's block
	// contain the point? (Occupied blocks form an antichain, so if any
	// occupied block contains p it is the predecessor's.)
	o.NodeComps(1)
	if !c.Block().ContainsPoint(p) {
		return 0, false, nil
	}
	return c, true, nil
}

func (t *Tree) pointQuery(p geom.Point, seen *seg.Seen, visit func(seg.ID, geom.Segment) bool, o *obs.Op, cur *seg.Cursor) error {
	c, ok, err := t.locate(p, o)
	if err != nil {
		if store.IsUnavailable(err) {
			return nil // degraded: point location lost; empty partial result
		}
		return err
	}
	if !ok {
		return nil
	}
	exLo, exHi := exactRange(c)
	mp := membersPool.Get().(*[]seg.ID)
	members := (*mp)[:0]
	defer func() { *mp = members[:0]; membersPool.Put(mp) }()
	var ln *rectLanes
	if t.cfg.StoreMBR {
		ln = lanesPool.Get().(*rectLanes)
		defer func() { ln.reset(); lanesPool.Put(ln) }()
	}
	var examined uint64
	defer func() { o.NodeComps(examined) }()
	if err := t.bt.ScanValues(exLo, exHi, func(k uint64, v []byte) bool {
		// StoreMBR: gather the stored rects for the batched point filter
		// (rect contains p ⟺ rect intersects the degenerate window
		// {p,p}, so the same intersect kernel serves both query shapes).
		if ln != nil {
			if qr, ok := decodeQEdgeRect(c, v); ok {
				examined++
				ln.push(qr)
			} else {
				ln.push(allPass)
			}
		}
		members = append(members, keySeg(k))
		return true
	}, o); err != nil {
		if !store.IsUnavailable(err) {
			return err
		}
		// Degraded: keep the members gathered before the quarantined page.
	}
	pt := geom.Rect{Min: p, Max: p}
	if ln != nil {
		members = filterMembers(members, ln, pt)
	}
	_, err = seen.Visit(members, pt, cur, visit)
	return err
}

// qedgeRef is one member of a bucket: a segment id with, in the StoreMBR
// variant, the q-edge's stored bounding rectangle.
type qedgeRef struct {
	id      seg.ID
	rect    geom.Rect
	hasRect bool
}

// nnEntry is the payload of a k-NN queue item; kind says which fields
// are valid.
type nnEntry struct {
	kind pqKind
	code geom.Code
	id   seg.ID
	s    geom.Segment
	// Bucket items: the q-edges of the leaf block, prefetched by the
	// region scan that found it, are nearestScratch.refs[lo:hi]. A bucket
	// seeded by point location has none yet (lo == hi).
	lo, hi int
}

// nearestScratch is the working memory of one nearest-neighbor search:
// the queue, the payloads its items' Slots index, the q-edges prefetched
// for deferred buckets (appended as regions are enumerated, never moved,
// so queue items address them by index) and the leaf blocks of the region
// being enumerated.
type nearestScratch struct {
	q      knn.Queue
	ents   []nnEntry
	refs   []qedgeRef
	groups []nnEntry // code, lo and hi of each block
}

// lower queues e under the lower bound d unless the queue drops it.
func (sc *nearestScratch) lower(d float64, e nnEntry) {
	if sc.q.PushBound(d, sc.q.Reserve(1), uint32(len(sc.ents))) {
		sc.ents = append(sc.ents, e)
	}
}

// exact queues the segment e at its distance d unless the queue drops it.
func (sc *nearestScratch) exact(d float64, e nnEntry) {
	if sc.q.PushExact(d, uint32(len(sc.ents))) {
		sc.ents = append(sc.ents, e)
	}
}

type pqKind uint8

const (
	pqRegion pqKind = iota // an undecomposed key range (block + descendants)
	pqBucket               // one leaf block whose member ids are known
	pqEdge                 // one q-edge, lower-bounded by its stored rect
	pqSeg                  // a fully resolved segment
)

// nearestEnumLimit caps how many q-edges a popped region may hold before
// the search subdivides it instead of enumerating its members. Small
// regions resolve with one contiguous scan (exploiting the Z-order
// clustering of the linear quadtree); large ones split into quadrants.
const nearestEnumLimit = 32

// NearestKAppendObs appends to dst up to k segments in increasing
// distance from p, using the incremental priority-queue search over
// quadtree blocks of Hoel & Samet [11]. The regular decomposition sorts
// the segments by position, so the search prunes aggressively — the
// paper's explanation of the PMR quadtree's low segment-comparison
// counts on this query. Regions with few q-edges are resolved with a
// single contiguous key-range scan rather than further subdivision,
// mirroring how a linear quadtree reads whole buckets off sequential
// B-tree leaves. The queue, the prefetched q-edges and the duplicate set
// are pooled, so a reused dst keeps warm queries off the allocator.
func (t *Tree) NearestKAppendObs(p geom.Point, k int, dst []core.NearestResult, o *obs.Op) ([]core.NearestResult, error) {
	base := len(dst)
	var examined uint64
	defer func() { o.NodeComps(examined) }()
	sc := nearestPool.Get().(*nearestScratch)
	sc.q.Reset(k)
	sc.ents = sc.ents[:0]
	refs, groups := sc.refs[:0], sc.groups
	defer func() { sc.refs, sc.groups = refs, groups; nearestPool.Put(sc) }()
	// Seed the queue from the leaf block containing p (one predecessor
	// search) plus the unexplored siblings along its ancestor path. In
	// the dense regions favored by the two-stage query points, the
	// answer then comes from the located leaf or an adjacent block —
	// pages that are Z-order neighbors on the same B-tree leaves — which
	// is why the PMR quadtree wins this query in the paper. When p falls
	// in unoccupied space (common for one-stage points) the search falls
	// back to a full top-down descent.
	if leaf, ok, err := t.locate(p, o); err != nil {
		if !store.IsUnavailable(err) {
			return dst, err
		}
		// Degraded: seed a full descent; unreachable blocks are skipped
		// as the search encounters them.
		sc.lower(0, nnEntry{kind: pqRegion, code: geom.RootCode()})
	} else if ok {
		sc.lower(0, nnEntry{kind: pqBucket, code: leaf})
		for c := leaf; c.Depth() > 0; c = c.Parent() {
			parent := c.Parent()
			for qd := 0; qd < 4; qd++ {
				sib := parent.Child(qd)
				if sib == c {
					continue
				}
				examined++
				sc.lower(sib.Block().DistSqToPoint(p), nnEntry{kind: pqRegion, code: sib})
			}
		}
	} else {
		sc.lower(0, nnEntry{kind: pqRegion, code: geom.RootCode()})
	}
	seen := seg.AcquireSeen(t.table.Len())
	defer seg.ReleaseSeen(seen)
	cur := t.table.Cursor(o)
	defer cur.Close()
	for sc.q.Len() > 0 && len(dst)-base < k {
		it := sc.q.Pop()
		e := sc.ents[it.Slot]
		switch e.kind {
		case pqSeg:
			dst = append(dst, core.NearestResult{
				ID:     e.id,
				Seg:    e.s,
				DistSq: it.DistSq,
				Found:  true,
			})

		case pqBucket:
			// Resolve the deferred leaf block only now, when no closer
			// candidate remains. A bucket seeded by locate carries no
			// prefetched keys; scan its exact range.
			if e.lo == e.hi {
				e.lo = len(refs)
				exLo, exHi := exactRange(e.code)
				if err := t.bt.ScanValues(exLo, exHi, func(k uint64, v []byte) bool {
					ref := qedgeRef{id: keySeg(k)}
					ref.rect, ref.hasRect = decodeQEdgeRect(e.code, v)
					refs = append(refs, ref)
					return true
				}, o); err != nil {
					if !store.IsUnavailable(err) {
						return dst, err
					}
					// Degraded: rank whatever members were gathered.
				}
				e.hi = len(refs)
			}
			for _, ref := range refs[e.lo:e.hi] {
				if ref.hasRect {
					// StoreMBR variant: defer the segment fetch behind the
					// stored rectangle's distance. Deduplication happens at
					// fetch time since another q-edge of the same segment
					// may carry a smaller lower bound.
					if seen.Has(ref.id) {
						continue
					}
					examined++
					sc.lower(ref.rect.DistSqToPoint(p), nnEntry{kind: pqEdge, id: ref.id})
					continue
				}
				s, ok, err := seen.Fetch(ref.id, cur)
				if err != nil {
					return dst, err
				}
				if ok {
					sc.exact(geom.DistSqPointSegment(p, s), nnEntry{kind: pqSeg, id: ref.id, s: s})
				}
			}

		case pqEdge:
			s, ok, err := seen.Fetch(e.id, cur)
			if err != nil {
				return dst, err
			}
			if ok {
				sc.exact(geom.DistSqPointSegment(p, s), nnEntry{kind: pqSeg, id: e.id, s: s})
			}

		case pqRegion:
			// Enumerate the q-edges under this region, stopping early
			// when the region is clearly populous.
			lo, hi := blockRange(e.code)
			limit := nearestEnumLimit
			if e.code.Depth() >= geom.MaxDepth {
				// A maximally deep block cannot be subdivided; enumerate
				// it fully however many coincident q-edges it holds.
				limit = int(^uint(0) >> 1)
			}
			groups = groups[:0]
			mark := len(refs)
			count := 0
			if err := t.bt.ScanValues(lo, hi, func(k uint64, v []byte) bool {
				count++
				bc := keyCode(k)
				if len(groups) == 0 || groups[len(groups)-1].code != bc {
					groups = append(groups, nnEntry{kind: pqBucket, code: bc, lo: len(refs)})
				}
				ref := qedgeRef{id: keySeg(k)}
				ref.rect, ref.hasRect = decodeQEdgeRect(bc, v)
				refs = append(refs, ref)
				groups[len(groups)-1].hi = len(refs)
				return count <= limit
			}, o); err != nil {
				if !store.IsUnavailable(err) {
					return dst, err
				}
				// Degraded: enumerate the groups gathered before the
				// quarantined page; the lost remainder is skipped.
			}
			if count > limit {
				refs = refs[:mark]
				for qd := 0; qd < 4; qd++ {
					child := e.code.Child(qd)
					examined++
					sc.lower(child.Block().DistSqToPoint(p), nnEntry{kind: pqRegion, code: child})
				}
				continue
			}
			// Defer each leaf block as a bucket ordered by its distance;
			// its segments are fetched only if the bucket is reached.
			for _, g := range groups {
				examined++
				sc.lower(g.code.Block().DistSqToPoint(p), g)
			}
		}
	}
	return dst, nil
}

// LeafBlocks returns the codes of all occupied leaf blocks in Z-order.
// The harness samples these (uniformly by block, not by area) for the
// two-stage query point generation of §6.
func (t *Tree) LeafBlocks() ([]geom.Code, error) {
	var out []geom.Code
	var last geom.Code
	first := true
	lo, hi := blockRange(geom.RootCode())
	err := t.bt.Scan(lo, hi, func(k uint64) bool {
		c := keyCode(k)
		if first || c != last {
			out = append(out, c)
			last, first = c, false
		}
		return true
	}, nil)
	return out, err
}
