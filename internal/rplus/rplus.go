// Package rplus implements the hybrid R+-tree used by Hoel & Samet: a
// structure "somewhere between the k-d-B-tree and the R+-tree" (§3).
//
// Nonleaf nodes store the raw partition rectangles produced by splitting
// (k-d-B style, no minimum bounding rectangle tightening); the child
// regions of a node tile its own region exactly — disjoint and complete.
// Leaf nodes store minimum bounding rectangles of the line segments (the
// R+-tree half of the hybrid). A segment is stored in every leaf whose
// region it intersects, so the decomposition of space is disjoint and point
// search follows a single root-to-leaf path.
//
// Node splits follow the policy of §3: try every vertical and horizontal
// split line and keep the one that cuts the fewest line segments (or child
// rectangles); ties are broken by the most even distribution. The child
// regions of every internal node form a guillotine partition of its
// region, so some line cuts no child: unlike the k-d-B-tree's, a split
// never propagates downward (DESIGN.md, "Why an R⁺ split never cuts a
// child").
package rplus

import (
	"errors"

	"segdb/internal/geom"
	"segdb/internal/obs"
	"segdb/internal/rpage"
	"segdb/internal/rsearch"
	"segdb/internal/seg"
	"segdb/internal/store"
)

// ErrUnsplittable is returned when no split line can reduce a node's
// occupancy (e.g. more segments than a page holds all meeting at one
// point, the case footnote 2 of the paper warns about).
var ErrUnsplittable = errors.New("rplus: node cannot be split productively")

// Config carries the tree's tunable parameters.
type Config struct {
	// LeafMBR selects the hybrid of the paper (true: leaf entries carry
	// the segment's minimum bounding rectangle, enabling early rejection)
	// or the pure k-d-B behaviour (false: leaf entries carry the leaf
	// region, so every probe must fetch the segment). The storage layout
	// is identical; only pruning power differs.
	LeafMBR bool
	// Compression selects the on-page node format: 0 writes the classic
	// 20-byte tuples, 1 the lossless 16-bit MBR-relative offsets.
	Compression int
}

// DefaultConfig returns the hybrid configuration used in the paper.
func DefaultConfig() Config { return Config{LeafMBR: true} }

// KDBConfig returns the pure k-d-B-tree variant (ablation).
func KDBConfig() Config { return Config{LeafMBR: false} }

// Tree is a disk-resident hybrid R+-tree over line segments. Node
// storage and the query traversals are the shared rsearch.Tree; this
// package adds insertion, splitting, deletion and the structural
// invariants.
type Tree struct {
	*rsearch.Tree
	cfg Config
	// o is the write in flight, set by Insert and Delete: its descent and
	// splits charge every comparison to it.
	o *obs.Op
	w scratch
}

// scratch is the write path's reusable state. A tree has one writer at
// a time (the database's structural lock), so one set per tree serves
// every insert and delete: a warm insert allocates only when a node
// splits or the tree grows.
type scratch struct {
	// outs[l] collects the replacement entries of the one node of level
	// l a descent holds. A split keeps its member segments, halves,
	// candidate coordinates and lines and sweep counts here too.
	outs   [][]rpage.Entry
	segs   []geom.Segment
	lo, hi []rpage.Entry
	coords []int32
	cands  []splitLine
	cnt    []int
	// probe, when set, sees every line choice; the tests replay each
	// through the brute-force count.
	probe func(region geom.Rect, cands []splitLine, segs []geom.Segment, entries []rpage.Entry, best splitLine, ok bool)
}

// New creates an empty tree. The root region is the whole world. A
// segment is stored in every leaf it crosses, so queries suppress
// duplicates.
func New(pool *store.Pool, table *seg.Table, cfg Config) (*Tree, error) {
	base, err := rsearch.New(pool, table, cfg.Compression, true)
	if err != nil {
		return nil, err
	}
	return &Tree{Tree: base, cfg: cfg}, nil
}

// Name implements core.Index.
func (t *Tree) Name() string {
	if !t.cfg.LeafMBR {
		return "k-d-B-tree"
	}
	return "R+-tree"
}

// Insert adds the segment with the given table ID, placing it in every
// leaf whose region it intersects, charging o.
func (t *Tree) Insert(id seg.ID, o *obs.Op) error {
	s, err := t.Segs.GetObs(id, o)
	if err != nil {
		return err
	}
	t.o = o
	repl, err := t.insertRec(t.Root, geom.World(), s, id, t.Levels)
	if err != nil {
		return err
	}
	// Grow the tree while the root produced siblings. A recursive split
	// can return more entries than one node holds; pack each extra level
	// through emitInternal until a single root remains.
	for len(repl) > 1 {
		t.Levels++
		if len(repl) <= t.Max {
			rid, err := t.AllocNode(&rpage.Node{Entries: repl})
			if err != nil {
				return err
			}
			t.Root = rid
			break
		}
		repl, err = t.emitInternal(store.NilPage, false, geom.World(), repl)
		if err != nil {
			return err
		}
	}
	t.Count++
	return nil
}

// insertRec inserts the segment into the subtree rooted at id covering
// region, whose root sits at the given level. It returns nil when the
// subtree still fits under its one parent entry, else the entries that
// must replace that entry (the node split).
func (t *Tree) insertRec(id store.PageID, region geom.Rect, s geom.Segment, sid seg.ID, level int) ([]rpage.Entry, error) {
	n, err := t.ReadNode(id, level)
	if err != nil {
		return nil, err
	}
	if n.Leaf {
		n.Entries = append(n.Entries, rpage.Entry{Rect: t.leafRect(s, region), Ptr: uint32(sid)})
		if len(n.Entries) <= t.Max {
			return nil, t.WriteNode(id, n)
		}
		return t.splitLeaf(id, region, n)
	}
	for len(t.w.outs) <= level {
		t.w.outs = append(t.w.outs, make([]rpage.Entry, 0, t.Max+1))
	}
	out := t.w.outs[level][:0]
	for _, e := range n.Entries {
		t.o.NodeComps(1)
		if !e.Rect.IntersectsSegment(s) {
			out = append(out, e)
			continue
		}
		repl, err := t.insertRec(store.PageID(e.Ptr), e.Rect, s, sid, level-1)
		if err != nil {
			return nil, err
		}
		if repl == nil {
			out = append(out, e)
		} else {
			out = append(out, repl...)
		}
	}
	t.w.outs[level] = out
	if len(out) <= t.Max {
		n.Entries = append(n.Entries[:0], out...)
		return nil, t.WriteNode(id, n)
	}
	return t.emitInternal(id, true, region, out)
}

// leafRect is the rectangle stored with a leaf entry: the segment MBR for
// the hybrid, or the leaf region for the pure k-d-B variant.
func (t *Tree) leafRect(s geom.Segment, region geom.Rect) geom.Rect {
	if t.cfg.LeafMBR {
		return s.Bounds()
	}
	return region
}

// Restore reattaches a tree to a disk image previously saved with its
// PersistMeta. The pool must wrap the restored disk; cfg must match the
// original tree's.
func Restore(pool *store.Pool, table *seg.Table, cfg Config, meta [3]uint64) (*Tree, error) {
	base, err := rsearch.Restore(pool, table, cfg.Compression, true, meta)
	if err != nil {
		return nil, err
	}
	return &Tree{Tree: base, cfg: cfg}, nil
}
