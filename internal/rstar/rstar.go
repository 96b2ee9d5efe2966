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
	"cmp"
	"slices"

	"segdb/internal/geom"
	"segdb/internal/kernel"
	"segdb/internal/obs"
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
	// MBR-relative offsets. Pages are self-describing, so any tree
	// decodes either.
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
	w   scratch
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
	base, err := rsearch.New(pool, table, cfg.Compression, false)
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

// scratch is the write path's reusable state. A tree has one writer at
// a time (the database's structural lock), so one set per tree serves
// every insert and delete: after the first few operations the write
// path allocates only when a node splits or the tree grows.
type scratch struct {
	// o is the operation in flight, set by Insert and Delete: every
	// bounding box computation of the write is charged to it.
	o *obs.Op
	// handled has bit l set once level l has been force-reinserted
	// during the current logical insertion.
	handled uint64
	queue   []pending
	// nodes[l] is the decode target for the one node of level l a
	// descent holds at a time.
	nodes []*rpage.Node
	// lanes and dOverlap are ChooseSubtree's coordinate lanes and the
	// kernel's per-candidate output.
	lanes    []int32
	dOverlap []int64
	// sorted, prefix and suffix are the split's sortings and group MBRs;
	// dist is pickReinsert's center distances.
	sorted         [4][]rpage.Entry
	prefix, suffix []geom.Rect
	dist           []distEntry
}

// readLevel decodes page id into the scratch node of its level. The
// node stays valid until the next readLevel of the same level; a descent
// holds one node per level, so recursion never clobbers a live one. The
// entry buffer has room for the overflowing M+1st entry.
func (t *Tree) readLevel(id store.PageID, level int) (*rpage.Node, error) {
	for len(t.w.nodes) <= level {
		t.w.nodes = append(t.w.nodes, &rpage.Node{Entries: make([]rpage.Entry, 0, t.Max+1)})
	}
	data, err := t.Pool.Get(id)
	if err != nil {
		return nil, err
	}
	n := t.w.nodes[level]
	err = rpage.ReadInto(data, n)
	t.Pool.Unpin(id, false)
	return n, err
}

// Insert adds the segment with the given table ID, charging o.
func (t *Tree) Insert(id seg.ID, o *obs.Op) error {
	s, err := t.Segs.GetObs(id, o)
	if err != nil {
		return err
	}
	t.w.o = o
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
	t.w.handled = 0
	t.w.queue = append(t.w.queue[:0], first)
	for len(t.w.queue) > 0 {
		p := t.w.queue[len(t.w.queue)-1]
		t.w.queue = t.w.queue[:len(t.w.queue)-1]
		mbr, splitEntry, err := t.insertRec(t.Root, t.Levels, p)
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
func (t *Tree) insertRec(id store.PageID, level int, p pending) (geom.Rect, *rpage.Entry, error) {
	n, err := t.readLevel(id, level)
	if err != nil {
		return geom.Rect{}, nil, err
	}
	if level == p.level {
		n.Entries = append(n.Entries, p.e)
		return t.resolveOverflow(id, n, level)
	}
	ci := t.chooseSubtree(n, p.e.Rect, level-1 == p.level)
	childMBR, splitEntry, err := t.insertRec(store.PageID(n.Entries[ci].Ptr), level-1, p)
	if err != nil {
		return geom.Rect{}, nil, err
	}
	n.Entries[ci].Rect = childMBR
	if splitEntry != nil {
		n.Entries = append(n.Entries, *splitEntry)
	}
	return t.resolveOverflow(id, n, level)
}

// resolveOverflow writes n back, applying forced reinsertion or a split if
// it exceeds M entries.
func (t *Tree) resolveOverflow(id store.PageID, n *rpage.Node, level int) (geom.Rect, *rpage.Entry, error) {
	if len(n.Entries) <= t.Max {
		if err := t.WriteNode(id, n); err != nil {
			return geom.Rect{}, nil, err
		}
		return n.MBR(), nil, nil
	}
	if bit := uint64(1) << uint(level); t.cfg.Algorithm == AlgorithmRStar && level != t.Levels && t.w.handled&bit == 0 && t.cfg.ReinsertFraction > 0 {
		t.w.handled |= bit
		t.pickReinsert(n, level)
		if err := t.WriteNode(id, n); err != nil {
			return geom.Rect{}, nil, err
		}
		return n.MBR(), nil, nil
	}
	var left, right []rpage.Entry
	if t.cfg.Algorithm == AlgorithmGuttman {
		left, right = t.quadraticSplit(n.Entries)
	} else {
		left, right = t.split(n.Entries)
	}
	// The groups live in split scratch; the node keeps its own buffer.
	n.Entries = append(n.Entries[:0], left...)
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
// minimum increase of overlap with the sibling entries, evaluated by the
// overlap-enlargement kernel over the node's coordinate lanes; otherwise
// it is the minimum area enlargement. Ties fall back to area enlargement,
// then to smallest area. The charge is one bounding box computation per
// candidate plus, under the overlap criterion, one per ordered pair of
// distinct entries.
func (t *Tree) chooseSubtree(n *rpage.Node, r geom.Rect, childrenAreTarget bool) int {
	N := len(n.Entries)
	if childrenAreTarget && t.cfg.Algorithm == AlgorithmRStar {
		if cap(t.w.lanes) < 4*N {
			t.w.lanes = make([]int32, 4*N)
			t.w.dOverlap = make([]int64, N)
		}
		lanes := t.w.lanes[:4*N]
		xmin, ymin, xmax, ymax := lanes[:N], lanes[N:2*N], lanes[2*N:3*N], lanes[3*N:]
		for i, e := range n.Entries {
			xmin[i], ymin[i], xmax[i], ymax[i] = e.Rect.Min.X, e.Rect.Min.Y, e.Rect.Max.X, e.Rect.Max.Y
		}
		t.w.o.NodeComps(uint64(N) * uint64(N))
		return kernel.ChooseSubtreeOverlap(xmin, ymin, xmax, ymax, r, t.w.dOverlap[:N])
	}
	best := 0
	bestEnlarge, bestArea := int64(-1), int64(0)
	for i, e := range n.Entries {
		dEnlarge := e.Rect.Enlargement(r)
		area := e.Rect.Area()
		if bestEnlarge < 0 || dEnlarge < bestEnlarge ||
			(dEnlarge == bestEnlarge && area < bestArea) {
			best, bestEnlarge, bestArea = i, dEnlarge, area
		}
	}
	t.w.o.NodeComps(uint64(N))
	return best
}

// distEntry is an entry keyed by its center's squared distance from the
// node center.
type distEntry struct {
	d float64
	e rpage.Entry
}

// pickReinsert removes from n the ReinsertFraction of entries whose
// centers are farthest from the center of the node's MBR and queues them
// for reinsertion at level, closest first ("close reinsert").
func (t *Tree) pickReinsert(n *rpage.Node, level int) {
	p := int(t.cfg.ReinsertFraction * float64(len(n.Entries)))
	if p < 1 {
		p = 1
	}
	c := n.MBR().Center()
	ds := t.w.dist[:0]
	for _, e := range n.Entries {
		ec := e.Rect.Center()
		dx := float64(ec.X - c.X)
		dy := float64(ec.Y - c.Y)
		ds = append(ds, distEntry{d: dx*dx + dy*dy, e: e})
	}
	t.w.dist = ds
	t.w.o.NodeComps(uint64(len(ds)))
	// Sort ascending by distance; the tail is reinserted.
	slices.SortStableFunc(ds, func(a, b distEntry) int { return cmp.Compare(a.d, b.d) })
	cut := len(ds) - p
	for i, de := range ds[:cut] {
		n.Entries[i] = de.e
	}
	n.Entries = n.Entries[:cut]
	for _, de := range ds[cut:] {
		t.w.queue = append(t.w.queue, pending{e: de.e, level: level})
	}
}

// Restore reattaches a tree to a disk image previously saved with its
// PersistMeta. The pool must wrap the restored disk; cfg must match the
// original tree's.
func Restore(pool *store.Pool, table *seg.Table, cfg Config, meta [3]uint64) (*Tree, error) {
	base, err := rsearch.Restore(pool, table, cfg.Compression, false, meta)
	if err != nil {
		return nil, err
	}
	return wrap(base, cfg), nil
}
