package rplus

import (
	"fmt"
	"slices"

	"segdb/internal/bulk"
	"segdb/internal/geom"
	"segdb/internal/obs"
	"segdb/internal/rpage"
	"segdb/internal/seg"
	"segdb/internal/store"
)

// BulkLoad builds a packed hybrid R+-tree (or pure k-d-B-tree, per cfg)
// over the given segments. Construction runs in three phases, all in
// memory until the final sequential page writes:
//
//  1. A recursive k-d partition cuts the world into leaf regions holding
//     at most ~3/4 of a page each. Cut lines are chosen from the median
//     of the member centers on either axis (longer region side first,
//     region midpoint as fallback), keeping whichever candidate strands
//     the fewest segments on both sides; a segment crossing the cut goes
//     to both sides, exactly as the incremental split policy duplicates.
//  2. The variable-depth binary partition is regrouped bottom-up into a
//     uniform-height multiway tree: each round packs maximal binary
//     subtrees holding at most M current nodes into one parent whose
//     region is the subtree's region, so sibling regions always tile
//     their parent exactly (Validate's area bookkeeping). A subtree
//     reduced to a single node is wrapped in a same-region chain parent,
//     keeping every leaf at the same level.
//  3. Pages are written children-first in a single deterministic
//     sequence — one write per node, no downward splits, no re-descents.
//
// Every phase runs on the calling goroutine, so the disk image is
// deterministic. ErrUnsplittable is returned when more than a page's
// worth of segments cannot be separated by any cut (footnote 2 of the
// paper; unreachable for noded planar maps).
func BulkLoad(pool *store.Pool, table *seg.Table, cfg Config, ids []seg.ID) (*Tree, error) {
	return BulkLoadObs(pool, table, cfg, ids, nil)
}

// BulkLoadObs is BulkLoad charging o the build's segment fetches and the
// region tests of its cut search.
func BulkLoadObs(pool *store.Pool, table *seg.Table, cfg Config, ids []seg.ID, o *obs.Op) (*Tree, error) {
	t, err := New(pool, table, cfg)
	if err != nil {
		return nil, err
	}
	if len(ids) == 0 {
		return t, nil
	}
	entries, err := bulk.Fetch(table, ids, o)
	if err != nil {
		return nil, err
	}
	// Pack leaves to ~75% so later inserts do not split immediately.
	target := t.Max * 3 / 4
	if target < 2 {
		target = 2
	}
	b := &kdBuilder{max: t.Max, target: target}
	root, err := b.build(geom.World(), entries)
	if err != nil {
		return nil, err
	}
	o.NodeComps(b.comps)

	// Free the empty root New allocated; the pack writes its own pages.
	pool.Free(t.Root)
	mwRoot, height := regroup(root, t.Max)
	rootID, err := t.writePacked(mwRoot)
	if err != nil {
		return nil, err
	}
	t.Root = rootID
	t.Levels = height
	t.Count = len(ids)
	return t, nil
}

// kdNode is one region of the in-memory binary partition; leaves
// (left == nil) hold their member segments.
type kdNode struct {
	region      geom.Rect
	segs        []bulk.Entry
	left, right *kdNode
}

type kdBuilder struct {
	max    int
	target int
	comps  uint64
}

// build recursively partitions region until each leaf holds at most
// target segments (or no cut can separate an oversized clump, which is
// accepted up to a full page and rejected beyond).
func (b *kdBuilder) build(region geom.Rect, segs []bulk.Entry) (*kdNode, error) {
	if len(segs) <= b.target {
		return &kdNode{region: region, segs: segs}, nil
	}
	axis, cut, ok := b.bestCut(region, segs)
	if !ok {
		if len(segs) <= b.max {
			return &kdNode{region: region, segs: segs}, nil
		}
		return nil, fmt.Errorf("%w: %d segments in %v", ErrUnsplittable, len(segs), region)
	}
	lr, rr := splitRegion(region, axis, cut)
	var lsegs, rsegs []bulk.Entry
	for _, e := range segs {
		b.comps += 2
		if lr.IntersectsSegment(e.Seg) {
			lsegs = append(lsegs, e)
		}
		if rr.IntersectsSegment(e.Seg) {
			rsegs = append(rsegs, e)
		}
	}
	left, err := b.build(lr, lsegs)
	if err != nil {
		return nil, err
	}
	right, err := b.build(rr, rsegs)
	if err != nil {
		return nil, err
	}
	return &kdNode{region: region, left: left, right: right}, nil
}

// bestCut evaluates the candidate cut lines deterministically and keeps
// the productive one stranding the fewest segments on its worse side
// (ties: least duplication, then candidate order). A cut at coordinate c
// on an axis separates [min, c-1] from [c, max]; it is productive when
// both sides hold strictly fewer segments than the parent.
func (b *kdBuilder) bestCut(region geom.Rect, segs []bulk.Entry) (axis int, cut int32, ok bool) {
	axes := [2]int{0, 1}
	if region.Height() > region.Width() {
		axes = [2]int{1, 0}
	}
	type cand struct {
		axis int
		cut  int32
	}
	var cands []cand
	add := func(a int, c int32) {
		lo, hi := axisRange(region, a)
		if c <= lo || c > hi {
			return
		}
		for _, p := range cands {
			if p.axis == a && p.cut == c {
				return
			}
		}
		cands = append(cands, cand{a, c})
	}
	for _, a := range axes {
		add(a, medianCenter(segs, a))
		lo, hi := axisRange(region, a)
		add(a, lo+(hi-lo)/2+1)
	}
	bestWorse, bestDup := -1, -1
	for _, p := range cands {
		lr, rr := splitRegion(region, p.axis, p.cut)
		l, r := 0, 0
		for _, e := range segs {
			b.comps += 2
			if lr.IntersectsSegment(e.Seg) {
				l++
			}
			if rr.IntersectsSegment(e.Seg) {
				r++
			}
		}
		if l >= len(segs) || r >= len(segs) {
			continue // everything on one side: no progress
		}
		worse, dup := l, l+r
		if r > worse {
			worse = r
		}
		if !ok || worse < bestWorse || (worse == bestWorse && dup < bestDup) {
			axis, cut, ok = p.axis, p.cut, true
			bestWorse, bestDup = worse, dup
		}
	}
	return axis, cut, ok
}

// axisRange returns the region's [min, max] along axis (0 = x, 1 = y).
func axisRange(r geom.Rect, axis int) (int32, int32) {
	if axis == 0 {
		return r.Min.X, r.Max.X
	}
	return r.Min.Y, r.Max.Y
}

// splitRegion tiles region into [min, cut-1] and [cut, max] along axis.
func splitRegion(r geom.Rect, axis int, cut int32) (left, right geom.Rect) {
	left, right = r, r
	if axis == 0 {
		left.Max.X = cut - 1
		right.Min.X = cut
	} else {
		left.Max.Y = cut - 1
		right.Min.Y = cut
	}
	return left, right
}

// medianCenter returns the median bounding-box center of the segments
// along axis — the classic k-d cut candidate.
func medianCenter(segs []bulk.Entry, axis int) int32 {
	vals := make([]int32, len(segs))
	for i, e := range segs {
		c := e.Seg.Bounds().Center()
		if axis == 0 {
			vals[i] = c.X
		} else {
			vals[i] = c.Y
		}
	}
	slices.Sort(vals)
	return vals[len(vals)/2]
}

// mwNode is one node of the uniform-height multiway tree produced by
// regrouping the binary partition.
type mwNode struct {
	region   geom.Rect
	leaf     bool
	segs     []bulk.Entry
	children []*mwNode
}

// regroup converts the binary partition into a multiway tree of uniform
// leaf depth. Each round walks the binary tree from the root and, at
// every maximal subtree containing at most max current items, packs
// those items (collected in partition order) under one new parent
// covering the subtree's region. Because the current items always tile
// their attachment subtree's region, sibling regions tile the parent
// exactly. A one-item subtree yields a one-child chain parent with the
// same region — legal (the child tiles it trivially) and required to
// keep all leaves at the same level. Every item gains exactly one
// parent per round, so item height stays uniform; each round strictly
// shrinks the item count, so the loop terminates at a single root.
func regroup(root *kdNode, max int) (*mwNode, int) {
	attach := map[*kdNode]*mwNode{}
	var initLeaves func(v *kdNode)
	initLeaves = func(v *kdNode) {
		if v.left == nil {
			attach[v] = &mwNode{region: v.region, leaf: true, segs: v.segs}
			return
		}
		initLeaves(v.left)
		initLeaves(v.right)
	}
	initLeaves(root)
	height := 1
	items := map[*kdNode]int{}
	for len(attach) > 1 {
		height++
		var tally func(v *kdNode) int
		tally = func(v *kdNode) int {
			n := 0
			if _, ok := attach[v]; ok {
				n = 1
			} else if v.left != nil {
				n = tally(v.left) + tally(v.right)
			}
			items[v] = n
			return n
		}
		tally(root)
		var collect func(v *kdNode, dst []*mwNode) []*mwNode
		collect = func(v *kdNode, dst []*mwNode) []*mwNode {
			if mw, ok := attach[v]; ok {
				return append(dst, mw)
			}
			if v.left == nil {
				return dst
			}
			return collect(v.right, collect(v.left, dst))
		}
		next := map[*kdNode]*mwNode{}
		var group func(v *kdNode)
		group = func(v *kdNode) {
			if items[v] <= max {
				next[v] = &mwNode{region: v.region, children: collect(v, nil)}
				return
			}
			group(v.left)
			group(v.right)
		}
		group(root)
		attach = next
	}
	for _, mw := range attach {
		return mw, height
	}
	return nil, 0 // unreachable: attach always holds the root item
}

// writePacked writes the multiway tree children-first, one sequential
// page allocation per node, and returns the root's page.
func (t *Tree) writePacked(n *mwNode) (store.PageID, error) {
	pn := &rpage.Node{Leaf: n.leaf}
	if n.leaf {
		pn.Entries = make([]rpage.Entry, 0, len(n.segs))
		for _, e := range n.segs {
			pn.Entries = append(pn.Entries, rpage.Entry{Rect: t.leafRect(e.Seg, n.region), Ptr: uint32(e.ID)})
		}
	} else {
		pn.Entries = make([]rpage.Entry, 0, len(n.children))
		for _, c := range n.children {
			cid, err := t.writePacked(c)
			if err != nil {
				return store.NilPage, err
			}
			pn.Entries = append(pn.Entries, rpage.Entry{Rect: c.region, Ptr: uint32(cid)})
		}
	}
	return t.AllocNode(pn)
}
