// Package rstar implements the R*-tree of Beckmann, Kriegel, Schneider and
// Seeger (SIGMOD 1990), the first of the three structures compared by Hoel
// & Samet.
//
// The implementation follows the paper's experimental setup (§4): nodes are
// serialized into fixed-size disk pages of 20-byte (rectangle, pointer)
// tuples, M is derived from the page size (50 tuples on 1 KB pages), the
// minimum fill m is 40% of M, and node overflow is first handled by forced
// reinsertion of the 30% of entries farthest from the node center — the
// "computationally expensive node overflow technique" that dominates the
// R*-tree's build time in Table 1.
package rstar

import (
	"segdb/internal/geom"
	"segdb/internal/rpage"
	"segdb/internal/rsearch"
	"segdb/internal/seg"
	"segdb/internal/store"
)

// Algorithm selects the insertion/split policy family.
type Algorithm int

// The two supported algorithm families.
const (
	// AlgorithmRStar is the R*-tree of Beckmann et al.: minimum-overlap
	// subtree choice, perimeter-driven split axis, forced reinsertion.
	AlgorithmRStar Algorithm = iota
	// AlgorithmGuttman is the original R-tree of Guttman (SIGMOD 1984):
	// least-enlargement subtree choice and the quadratic split, with no
	// forced reinsertion. The paper's R*-tree is described as "a variant
	// of the R-tree [9]"; this is that baseline.
	AlgorithmGuttman
)

// Config carries the tunable parameters of the tree.
type Config struct {
	// Algorithm selects R*-tree (default) or classic Guttman R-tree
	// behaviour.
	Algorithm Algorithm
	// MinFillFraction is m/M; the paper uses 0.4.
	MinFillFraction float64
	// ReinsertFraction is the share of entries force-reinserted on the
	// first overflow of a level; the paper (and the R*-tree authors) use
	// 0.3. Zero disables forced reinsertion (split-only ablation). It is
	// ignored by the Guttman algorithm.
	ReinsertFraction float64
	// Compression selects the on-page node format: 0 writes the paper's
	// 20-byte absolute-coordinate tuples, 1 the lossless 16-bit
	// MBR-relative offsets, 2 the 8-bit quantized lanes (outward-rounded,
	// so stored rectangles may conservatively exceed the exact ones).
	// Pages are self-describing, so any tree decodes any level.
	Compression int
}

// DefaultConfig returns the parameters used in the paper's experiments.
func DefaultConfig() Config {
	return Config{MinFillFraction: 0.4, ReinsertFraction: 0.3}
}

// GuttmanConfig returns the classic R-tree configuration (Guttman's
// original minimum fill of 40% is kept for comparability).
func GuttmanConfig() Config {
	return Config{Algorithm: AlgorithmGuttman, MinFillFraction: 0.4}
}

// Tree is a disk-resident R*-tree over line segments. Node storage and
// the query traversals are the shared rsearch.Tree; this package adds
// insertion, splitting, deletion and the structural invariants.
type Tree struct {
	*rsearch.Tree
	cfg Config
	min int // m
}

// clampLevel normalizes a configured compression level to [0, 2].
func clampLevel(level int) int {
	if level < 0 {
		return 0
	}
	if level > 2 {
		return 2
	}
	return level
}

// wrap completes a tree over its shared part: m is MinFillFraction of M,
// kept within [2, M/2].
func wrap(base *rsearch.Tree, cfg Config) *Tree {
	min := int(cfg.MinFillFraction * float64(base.Max))
	if min < 2 {
		min = 2
	}
	if min > base.Max/2 {
		min = base.Max / 2
	}
	return &Tree{Tree: base, cfg: cfg, min: min}
}

// New creates an empty R*-tree whose nodes live on pages of pool and whose
// leaf entries point into table. Every segment is stored in exactly one
// leaf, so queries need no duplicate suppression.
func New(pool *store.Pool, table *seg.Table, cfg Config) (*Tree, error) {
	base, err := rsearch.New(pool, table, clampLevel(cfg.Compression), false)
	if err != nil {
		return nil, err
	}
	return wrap(base, cfg), nil
}

// Name implements core.Index.
func (t *Tree) Name() string {
	if t.cfg.Algorithm == AlgorithmGuttman {
		return "R-tree"
	}
	return "R*-tree"
}

// pending is an entry awaiting (re)insertion at a given level
// (level 1 = leaf).
type pending struct {
	e     rpage.Entry
	level int
}

// Insert adds the segment with the given table ID.
func (t *Tree) Insert(id seg.ID) error {
	s, err := t.Segs.Get(id)
	if err != nil {
		return err
	}
	e := rpage.Entry{Rect: s.Bounds(), Ptr: uint32(id)}
	if err := t.insertAll(pending{e: e, level: 1}); err != nil {
		return err
	}
	t.Count++
	return nil
}

// insertAll performs one logical insertion including any forced
// reinsertions it triggers. Forced reinsertion is attempted at most once
// per level per logical insertion, per the R*-tree paper.
func (t *Tree) insertAll(first pending) error {
	queue := []pending{first}
	handled := make(map[int]bool)
	for len(queue) > 0 {
		p := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		mbr, splitEntry, err := t.insertRec(t.Root, t.Levels, p, handled, &queue)
		if err != nil {
			return err
		}
		if splitEntry != nil {
			// Root split: grow the tree.
			old := rpage.Entry{Rect: mbr, Ptr: uint32(t.Root)}
			rid, err := t.AllocNode(&rpage.Node{Entries: []rpage.Entry{old, *splitEntry}})
			if err != nil {
				return err
			}
			t.Root = rid
			t.Levels++
		}
	}
	return nil
}

// insertRec descends to the target level, inserts, and resolves overflow
// on the way back up. It returns the subtree's new MBR and, when the node
// split, the entry for the new sibling that the caller must adopt.
func (t *Tree) insertRec(id store.PageID, level int, p pending, handled map[int]bool, queue *[]pending) (geom.Rect, *rpage.Entry, error) {
	n, err := t.ReadNode(id)
	if err != nil {
		return geom.Rect{}, nil, err
	}
	if level == p.level {
		n.Entries = append(n.Entries, p.e)
		return t.resolveOverflow(id, n, level, handled, queue)
	}
	ci := t.chooseSubtree(n, p.e.Rect, level-1 == p.level)
	childMBR, splitEntry, err := t.insertRec(store.PageID(n.Entries[ci].Ptr), level-1, p, handled, queue)
	if err != nil {
		return geom.Rect{}, nil, err
	}
	n.Entries[ci].Rect = childMBR
	if splitEntry != nil {
		n.Entries = append(n.Entries, *splitEntry)
	}
	return t.resolveOverflow(id, n, level, handled, queue)
}

// resolveOverflow writes n back, applying forced reinsertion or a split if
// it exceeds M entries.
func (t *Tree) resolveOverflow(id store.PageID, n *rpage.Node, level int, handled map[int]bool, queue *[]pending) (geom.Rect, *rpage.Entry, error) {
	if len(n.Entries) <= t.Max {
		if err := t.WriteNode(id, n); err != nil {
			return geom.Rect{}, nil, err
		}
		return n.MBR(), nil, nil
	}
	if t.cfg.Algorithm == AlgorithmRStar && level != t.Levels && !handled[level] && t.cfg.ReinsertFraction > 0 {
		handled[level] = true
		kept, removed := t.pickReinsert(n.Entries)
		n.Entries = kept
		if err := t.WriteNode(id, n); err != nil {
			return geom.Rect{}, nil, err
		}
		for _, e := range removed {
			*queue = append(*queue, pending{e: e, level: level})
		}
		return n.MBR(), nil, nil
	}
	var left, right []rpage.Entry
	if t.cfg.Algorithm == AlgorithmGuttman {
		left, right = t.quadraticSplit(n.Entries)
	} else {
		left, right = t.split(n.Entries)
	}
	n.Entries = left
	if err := t.WriteNode(id, n); err != nil {
		return geom.Rect{}, nil, err
	}
	rn := &rpage.Node{Leaf: n.Leaf, Entries: right}
	rid, err := t.AllocNode(rn)
	if err != nil {
		return geom.Rect{}, nil, err
	}
	return n.MBR(), &rpage.Entry{Rect: rn.MBR(), Ptr: uint32(rid)}, nil
}

// chooseSubtree picks the child to descend into. When the children are at
// the insertion level (childrenAreTarget), the R*-tree criterion is the
// minimum increase of overlap with the sibling entries; otherwise it is
// the minimum area enlargement. Ties fall back to area enlargement, then
// to smallest area.
func (t *Tree) chooseSubtree(n *rpage.Node, r geom.Rect, childrenAreTarget bool) int {
	best := 0
	if childrenAreTarget && t.cfg.Algorithm == AlgorithmRStar {
		bestOverlap, bestEnlarge, bestArea := int64(-1), int64(0), int64(0)
		for i, e := range n.Entries {
			enlarged := e.Rect.Union(r)
			t.Comps.Add(1)
			var dOverlap int64
			for j, o := range n.Entries {
				if j == i {
					continue
				}
				t.Comps.Add(1)
				dOverlap += enlarged.OverlapArea(o.Rect) - e.Rect.OverlapArea(o.Rect)
			}
			dEnlarge := enlarged.Area() - e.Rect.Area()
			area := e.Rect.Area()
			if bestOverlap < 0 || dOverlap < bestOverlap ||
				(dOverlap == bestOverlap && (dEnlarge < bestEnlarge ||
					(dEnlarge == bestEnlarge && area < bestArea))) {
				best, bestOverlap, bestEnlarge, bestArea = i, dOverlap, dEnlarge, area
			}
		}
		return best
	}
	bestEnlarge, bestArea := int64(-1), int64(0)
	for i, e := range n.Entries {
		t.Comps.Add(1)
		dEnlarge := e.Rect.Enlargement(r)
		area := e.Rect.Area()
		if bestEnlarge < 0 || dEnlarge < bestEnlarge ||
			(dEnlarge == bestEnlarge && area < bestArea) {
			best, bestEnlarge, bestArea = i, dEnlarge, area
		}
	}
	return best
}

// pickReinsert removes the ReinsertFraction of entries whose centers are
// farthest from the center of the node's MBR, returning (kept, removed).
// The removed entries are ordered closest-first ("close reinsert").
func (t *Tree) pickReinsert(entries []rpage.Entry) (kept, removed []rpage.Entry) {
	p := int(t.cfg.ReinsertFraction * float64(len(entries)))
	if p < 1 {
		p = 1
	}
	mbr := entries[0].Rect
	for _, e := range entries[1:] {
		mbr = mbr.Union(e.Rect)
	}
	c := mbr.Center()
	type distEntry struct {
		d float64
		e rpage.Entry
	}
	ds := make([]distEntry, len(entries))
	for i, e := range entries {
		ec := e.Rect.Center()
		dx := float64(ec.X - c.X)
		dy := float64(ec.Y - c.Y)
		ds[i] = distEntry{d: dx*dx + dy*dy, e: e}
		t.Comps.Add(1)
	}
	// Sort ascending by distance; the tail is reinserted.
	sortSlice(ds, func(a, b distEntry) bool { return a.d < b.d })
	cut := len(ds) - p
	for _, de := range ds[:cut] {
		kept = append(kept, de.e)
	}
	for _, de := range ds[cut:] {
		removed = append(removed, de.e)
	}
	return kept, removed
}

// Restore reattaches a tree to a disk image previously saved with its
// PersistMeta. The pool must wrap the restored disk; cfg must match the
// original tree's.
func Restore(pool *store.Pool, table *seg.Table, cfg Config, meta [3]uint64) (*Tree, error) {
	base, err := rsearch.Restore(pool, table, clampLevel(cfg.Compression), false, meta)
	if err != nil {
		return nil, err
	}
	return wrap(base, cfg), nil
}
