package rplus

import (
	"fmt"
	"slices"
	"sort"

	"segdb/internal/geom"
	"segdb/internal/rpage"
	"segdb/internal/seg"
	"segdb/internal/store"
)

// splitLine describes a candidate partition of a region: a vertical
// (axis=0) line x=coord or horizontal (axis=1) line y=coord. The low side
// is [min, coord-1], the high side [coord, max].
type splitLine struct {
	axis  int
	coord int32
}

// halves returns the two sub-regions produced by the line.
func (l splitLine) halves(region geom.Rect) (lo, hi geom.Rect) {
	return splitRegion(region, l.axis, l.coord)
}

// splitLeaf splits an overflowing leaf along the line that cuts the fewest
// line segments (ties: most even distribution), per §3 of the paper. The
// original page keeps the low side; a new page receives the high side.
// It returns the two parent entries.
func (t *Tree) splitLeaf(id store.PageID, region geom.Rect, n *rpage.Node) ([]rpage.Entry, error) {
	// Fetch every member segment once (these table reads are the price of
	// the exact cut counts; they show up in the build's segment traffic).
	segs := t.w.segs[:0]
	for _, e := range n.Entries {
		s, err := t.Segs.GetObs(seg.ID(e.Ptr), t.o)
		if err != nil {
			return nil, err
		}
		segs = append(segs, s)
	}
	t.w.segs = segs
	best, ok := t.chooseLine(region, segs, nil)
	if !ok {
		return nil, ErrUnsplittable
	}
	loR, hiR := best.halves(region)
	loE, hiE := t.w.lo[:0], t.w.hi[:0]
	for i, e := range n.Entries {
		if loR.IntersectsSegment(segs[i]) {
			loE = append(loE, rpage.Entry{Rect: t.leafRect(segs[i], loR), Ptr: e.Ptr})
		}
		if hiR.IntersectsSegment(segs[i]) {
			hiE = append(hiE, rpage.Entry{Rect: t.leafRect(segs[i], hiR), Ptr: e.Ptr})
		}
	}
	t.w.lo, t.w.hi = loE, hiE
	if err := t.WriteNode(id, &rpage.Node{Leaf: true, Entries: loE}); err != nil {
		return nil, err
	}
	hid, err := t.AllocNode(&rpage.Node{Leaf: true, Entries: hiE})
	if err != nil {
		return nil, err
	}
	return []rpage.Entry{
		{Rect: loR, Ptr: uint32(id)},
		{Rect: hiR, Ptr: uint32(hid)},
	}, nil
}

// emitInternal writes entries as one internal node when they fit (into
// page id when reuse is set, else a fresh page), or splits the region and
// recurses. A single insertion can split several children of the same
// node (a segment is placed in every leaf it crosses), so an internal
// node may arrive more than one entry over capacity; each half is split
// again until every node fits. It returns the parent entries for
// everything it created.
//
// The child regions this code writes form a guillotine partition of
// their parent's region, so the line chooseLine picks cuts no child
// (DESIGN.md, "Why an R⁺ split never cuts a child"). A child straddling
// it can only come from a page this code did not write, and is refused
// as corruption rather than split downward.
func (t *Tree) emitInternal(id store.PageID, reuse bool, region geom.Rect, entries []rpage.Entry) ([]rpage.Entry, error) {
	if len(entries) <= t.Max {
		if reuse {
			if err := t.WriteNode(id, &rpage.Node{Entries: entries}); err != nil {
				return nil, err
			}
			return []rpage.Entry{{Rect: region, Ptr: uint32(id)}}, nil
		}
		nid, err := t.AllocNode(&rpage.Node{Entries: entries})
		if err != nil {
			return nil, err
		}
		return []rpage.Entry{{Rect: region, Ptr: uint32(nid)}}, nil
	}
	best, ok := t.chooseLine(region, nil, entries)
	if !ok {
		return nil, ErrUnsplittable
	}
	loR, hiR := best.halves(region)
	var loE, hiE []rpage.Entry
	for _, e := range entries {
		inLo := e.Rect.Intersects(loR)
		inHi := e.Rect.Intersects(hiR)
		switch {
		case inLo && inHi:
			return nil, fmt.Errorf("rplus: every split line of region %v cuts a child (here %v): %w", region, e.Rect, store.ErrBadPage)
		case inLo:
			loE = append(loE, e)
		default:
			hiE = append(hiE, e)
		}
	}
	out, err := t.emitInternal(id, reuse, loR, loE)
	if err != nil {
		return nil, err
	}
	hiOut, err := t.emitInternal(store.NilPage, false, hiR, hiE)
	if err != nil {
		return nil, err
	}
	return append(out, hiOut...), nil
}

// chooseLine returns the split line that cuts the fewest members — the
// segments of a leaf (segs) or the child regions of an internal node
// (entries), one of them nil — then the most even split, then the first
// candidate. The candidates lie just before and just after each member's
// extent (segment MBR or child region: for an internal node, the only
// lines that can avoid cutting children), strictly inside the region:
// x lines, then y lines, each ascending. Lines that leave one side with
// every member are skipped, or splitting would not terminate.
//
// Meeting the low half [min, c-1] is monotone in c (the high half
// antitone), so per axis one binary search of the predicate per member
// and half finds where its answer flips, and a prefix sum yields every
// (nLo, nHi) the brute-force count would (DESIGN.md, "Write-path
// kernel"). The charge is the brute force's: one comparison per
// (candidate, member) pair.
func (t *Tree) chooseLine(region geom.Rect, segs []geom.Segment, entries []rpage.Entry) (splitLine, bool) {
	total := len(segs) + len(entries)
	bound := func(i int) geom.Rect {
		if segs != nil {
			return segs[i].Bounds()
		}
		return entries[i].Rect
	}
	meets := func(i int, r geom.Rect) bool {
		if segs != nil {
			return r.IntersectsSegment(segs[i])
		}
		return entries[i].Rect.Intersects(r)
	}
	bestCuts, bestSkew := -1, 0
	var best splitLine
	cands := t.w.cands[:0]
	for a := 0; a < 2; a++ {
		vs := t.w.coords[:0]
		for i := 0; i < total; i++ {
			lo, hi := axisRange(bound(i), a)
			vs = append(vs, lo, hi+1)
		}
		slices.Sort(vs)
		t.w.coords = vs
		first := len(cands)
		rmin, rmax := axisRange(region, a)
		for _, v := range slices.Compact(vs) {
			if v > rmin && v <= rmax {
				cands = append(cands, splitLine{axis: a, coord: v})
			}
		}
		axis := cands[first:]
		k := len(axis)
		// enter[j] members first meet the low half at axis[j]; leave[j]
		// members first miss the high half there (index k: never).
		t.w.cnt = append(t.w.cnt[:0], make([]int, 2*(k+1))...)
		enter, leave := t.w.cnt[:k+1], t.w.cnt[k+1:]
		for i := 0; i < total; i++ {
			enter[sort.Search(k, func(j int) bool {
				lo, _ := axis[j].halves(region)
				return meets(i, lo)
			})]++
			leave[sort.Search(k, func(j int) bool {
				_, hi := axis[j].halves(region)
				return !meets(i, hi)
			})]++
		}
		nLo, nHi := 0, total
		for j, l := range axis {
			nLo += enter[j]
			nHi -= leave[j]
			if nLo >= total || nHi >= total {
				continue // unproductive: one side keeps everything
			}
			cuts := nLo + nHi - total
			skew := nLo - nHi
			if skew < 0 {
				skew = -skew
			}
			if bestCuts < 0 || cuts < bestCuts || (cuts == bestCuts && skew < bestSkew) {
				bestCuts, bestSkew, best = cuts, skew, l
			}
		}
	}
	t.w.cands = cands
	t.o.NodeComps(uint64(len(cands) * total))
	if t.w.probe != nil {
		t.w.probe(region, cands, segs, entries, best, bestCuts >= 0)
	}
	return best, bestCuts >= 0
}
