package rplus

import (
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
	if l.axis == 0 {
		lo = geom.Rect{Min: region.Min, Max: geom.Point{X: l.coord - 1, Y: region.Max.Y}}
		hi = geom.Rect{Min: geom.Point{X: l.coord, Y: region.Min.Y}, Max: region.Max}
	} else {
		lo = geom.Rect{Min: region.Min, Max: geom.Point{X: region.Max.X, Y: l.coord - 1}}
		hi = geom.Rect{Min: geom.Point{X: region.Min.X, Y: l.coord}, Max: region.Max}
	}
	return lo, hi
}

// splitLeaf splits an overflowing leaf along the line that cuts the fewest
// line segments (ties: most even distribution), per §3 of the paper. The
// original page keeps the low side; a new page receives the high side.
// It returns the two parent entries.
func (t *Tree) splitLeaf(id store.PageID, region geom.Rect, n *rpage.Node) ([]rpage.Entry, error) {
	// Fetch every member segment once (these table reads are the price of
	// the exact cut counts; they show up in the build's segment traffic).
	segs := make([]geom.Segment, len(n.Entries))
	for i, e := range n.Entries {
		s, err := t.Segs.Get(seg.ID(e.Ptr))
		if err != nil {
			return nil, err
		}
		segs[i] = s
	}
	cands := t.leafCandidates(region, segs)
	best, ok := t.chooseLine(region, cands, len(n.Entries), func(lo, hi geom.Rect) (nLo, nHi int) {
		for _, s := range segs {
			t.Comps.Add(1)
			if lo.IntersectsSegment(s) {
				nLo++
			}
			if hi.IntersectsSegment(s) {
				nHi++
			}
		}
		return nLo, nHi
	})
	if !ok {
		return nil, ErrUnsplittable
	}
	loR, hiR := best.halves(region)
	var loE, hiE []rpage.Entry
	for i, e := range n.Entries {
		if loR.IntersectsSegment(segs[i]) {
			loE = append(loE, rpage.Entry{Rect: t.leafRect(segs[i], loR), Ptr: e.Ptr})
		}
		if hiR.IntersectsSegment(segs[i]) {
			hiE = append(hiE, rpage.Entry{Rect: t.leafRect(segs[i], hiR), Ptr: e.Ptr})
		}
	}
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

// splitInternal splits an overflowing internal node. Children straddling
// the chosen line are split downward, k-d-B style. A single insertion can
// split several children of the same node (a segment is placed in every
// leaf it crosses), so a node may arrive more than one entry over
// capacity; each half is split again recursively until every node fits,
// and the full set of replacement entries is returned.
func (t *Tree) splitInternal(id store.PageID, region geom.Rect, n *rpage.Node) ([]rpage.Entry, error) {
	return t.emitInternal(id, true, region, n.Entries)
}

// emitInternal writes entries as one internal node when they fit (into
// page id when reuse is set, else a fresh page), or splits the region and
// recurses. It returns the parent entries for everything it created.
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
	cands := t.internalCandidates(region, entries)
	best, ok := t.chooseLine(region, cands, len(entries), func(lo, hi geom.Rect) (nLo, nHi int) {
		for _, e := range entries {
			t.Comps.Add(1)
			if e.Rect.Intersects(lo) {
				nLo++
			}
			if e.Rect.Intersects(hi) {
				nHi++
			}
		}
		return nLo, nHi
	})
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
			// Downward split of the straddling child.
			l, h, err := t.splitSubtree(store.PageID(e.Ptr), e.Rect, best)
			if err != nil {
				return nil, err
			}
			cl, _ := e.Rect.Intersection(loR)
			ch, _ := e.Rect.Intersection(hiR)
			loE = append(loE, rpage.Entry{Rect: cl, Ptr: uint32(l)})
			hiE = append(hiE, rpage.Entry{Rect: ch, Ptr: uint32(h)})
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

// splitSubtree cuts the whole subtree rooted at id (covering region) along
// the line, producing two subtrees of the same height. The original page
// becomes the low side; the returned pages cover region∩lo and region∩hi.
//
// A note on reachability: because node splits only consider candidate
// lines at child-region boundaries and minimize cuts, and because the
// children of every node form a guillotine partition (each split refines
// one cell with a full line, preserving the property inductively), a
// zero-cut line always exists and is always preferred — so the insertion
// path never actually forces a downward split. The mechanism is retained
// because the k-d-B-tree literature requires it for split policies that
// choose planes independently of child boundaries (e.g. medians), and
// Tree.SplitSubtreeForTest exercises it directly.
func (t *Tree) splitSubtree(id store.PageID, region geom.Rect, line splitLine) (lo, hi store.PageID, err error) {
	n, err := t.ReadNode(id)
	if err != nil {
		return 0, 0, err
	}
	loHalf, hiHalf := line.halves(region)
	loR, _ := region.Intersection(loHalf)
	hiR, _ := region.Intersection(hiHalf)
	var loE, hiE []rpage.Entry
	if n.Leaf {
		for _, e := range n.Entries {
			s, err := t.Segs.Get(seg.ID(e.Ptr))
			if err != nil {
				return 0, 0, err
			}
			t.Comps.Add(1)
			if loR.IntersectsSegment(s) {
				loE = append(loE, rpage.Entry{Rect: t.leafRect(s, loR), Ptr: e.Ptr})
			}
			if hiR.IntersectsSegment(s) {
				hiE = append(hiE, rpage.Entry{Rect: t.leafRect(s, hiR), Ptr: e.Ptr})
			}
		}
	} else {
		for _, e := range n.Entries {
			t.Comps.Add(1)
			inLo := e.Rect.Intersects(loR)
			inHi := e.Rect.Intersects(hiR)
			switch {
			case inLo && inHi:
				l, h, err := t.splitSubtree(store.PageID(e.Ptr), e.Rect, line)
				if err != nil {
					return 0, 0, err
				}
				cl, _ := e.Rect.Intersection(loR)
				ch, _ := e.Rect.Intersection(hiR)
				loE = append(loE, rpage.Entry{Rect: cl, Ptr: uint32(l)})
				hiE = append(hiE, rpage.Entry{Rect: ch, Ptr: uint32(h)})
			case inLo:
				loE = append(loE, e)
			default:
				hiE = append(hiE, e)
			}
		}
	}
	if err := t.WriteNode(id, &rpage.Node{Leaf: n.Leaf, Entries: loE}); err != nil {
		return 0, 0, err
	}
	hid, err := t.AllocNode(&rpage.Node{Leaf: n.Leaf, Entries: hiE})
	if err != nil {
		return 0, 0, err
	}
	return id, hid, nil
}

// chooseLine evaluates the candidate lines and returns the one minimizing
// the number of cut objects, breaking ties by the most even distribution.
// Productivity is required: both sides must end up with fewer objects than
// the overflowing node holds (otherwise splitting would not terminate).
func (t *Tree) chooseLine(region geom.Rect, cands []splitLine, total int, count func(lo, hi geom.Rect) (int, int)) (splitLine, bool) {
	bestCuts, bestSkew := -1, 0
	var best splitLine
	for _, l := range cands {
		lo, hi := l.halves(region)
		if !lo.Valid() || !hi.Valid() {
			continue
		}
		nLo, nHi := count(lo, hi)
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
	return best, bestCuts >= 0
}

// leafCandidates proposes split lines at the MBR boundaries of the member
// segments (both just-before and just-after each extent), restricted to
// lines interior to the region.
func (t *Tree) leafCandidates(region geom.Rect, segs []geom.Segment) []splitLine {
	var xs, ys []int32
	for _, s := range segs {
		b := s.Bounds()
		xs = append(xs, b.Min.X, b.Max.X+1)
		ys = append(ys, b.Min.Y, b.Max.Y+1)
	}
	return makeLines(region, xs, ys)
}

// internalCandidates proposes split lines at the child region boundaries,
// which are the only lines that avoid cutting children when possible.
func (t *Tree) internalCandidates(region geom.Rect, entries []rpage.Entry) []splitLine {
	var xs, ys []int32
	for _, e := range entries {
		xs = append(xs, e.Rect.Min.X, e.Rect.Max.X+1)
		ys = append(ys, e.Rect.Min.Y, e.Rect.Max.Y+1)
	}
	return makeLines(region, xs, ys)
}

func makeLines(region geom.Rect, xs, ys []int32) []splitLine {
	var out []splitLine
	for _, x := range dedupSorted(xs) {
		if x > region.Min.X && x <= region.Max.X {
			out = append(out, splitLine{axis: 0, coord: x})
		}
	}
	for _, y := range dedupSorted(ys) {
		if y > region.Min.Y && y <= region.Max.Y {
			out = append(out, splitLine{axis: 1, coord: y})
		}
	}
	return out
}

func dedupSorted(vs []int32) []int32 {
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	out := vs[:0]
	for i, v := range vs {
		if i == 0 || v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

// SplitSubtreeForTest exposes the downward split to the test suite (see
// the reachability note on splitSubtree).
func (t *Tree) SplitSubtreeForTest(id store.PageID, region geom.Rect, axis int, coord int32) (lo, hi store.PageID, err error) {
	return t.splitSubtree(id, region, splitLine{axis: axis, coord: coord})
}

// RootForTest exposes the root page and region for white-box tests.
func (t *Tree) RootForTest() (store.PageID, geom.Rect) { return t.Root, geom.World() }
