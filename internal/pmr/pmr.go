// Package pmr implements the PMR quadtree of Nelson & Samet as used by
// Hoel & Samet: an edge-based quadtree with a probabilistic splitting rule,
// stored as a linear quadtree in a disk-based B+-tree (the QUILT layout of
// §4 of the paper).
//
// Each q-edge is an 8-byte B-tree key packing the block's locational code
// (28-bit Morton value of the lower-left corner plus 4-bit depth) together
// with the 32-bit segment pointer. Keys sort in Z-order, so the q-edges of
// a block — and of every block nested inside it — form a contiguous key
// range, which is what the structure's point, window and nearest searches
// exploit.
//
// Insertion places a segment in every leaf block it intersects; a block
// whose occupancy then exceeds the splitting threshold is split once (and
// only once) into four. Deletion removes the segment from its blocks and
// merges a block with its brothers when their combined occupancy drops
// below the threshold, recursively.
package pmr

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"segdb/internal/btree"
	"segdb/internal/geom"
	"segdb/internal/obs"
	"segdb/internal/seg"
	"segdb/internal/store"
)

// Config carries the PMR parameters.
type Config struct {
	// SplittingThreshold is the occupancy that triggers a (single) block
	// split. The paper uses 4 for road networks, "since it is rare for
	// more than 4 roads to intersect".
	SplittingThreshold int
	// MaxDepth bounds the decomposition; the paper uses 14 (16K x 16K).
	MaxDepth int
	// StoreMBR selects the variant discussed in §6 of the paper: every
	// q-edge entry additionally stores the bounding rectangle of the
	// segment's piece within the block (quantized to 8 bytes, "3-tuples"
	// instead of 2-tuples). Queries can then reject candidates without
	// fetching the segment table, trading storage for fewer segment
	// comparisons.
	StoreMBR bool
	// Compression selects the B+-tree leaf format: 0 writes classic
	// fixed-width entries, >=1 delta-coded varint keys (q-edge
	// locational codes are sorted and dense, so deltas are short) with
	// the 8-byte q-edge rectangles bit-packed to the 14-bit world
	// domain. Lossless at every level.
	Compression int
}

// DefaultConfig returns the configuration of the paper's experiments.
func DefaultConfig() Config {
	return Config{SplittingThreshold: 4, MaxDepth: geom.MaxDepth}
}

// Tree is a disk-resident PMR quadtree.
type Tree struct {
	bt    *btree.Tree
	table *seg.Table
	cfg   Config
	count int
	// Working sets kept for the next call (a tree has one writer at a
	// time, the database's structural lock): leavesFor's result, the
	// occupied codes below one of its cover blocks, splitBlock's members,
	// and mergeUpward's distinct segments and keys below a parent.
	leaves, occupied  []geom.Code
	members, distinct []seg.ID
	keys              []uint64
}

// New creates an empty PMR quadtree whose linear representation lives on
// pages of the pool.
func New(pool *store.Pool, table *seg.Table, cfg Config) (*Tree, error) {
	if cfg.SplittingThreshold < 1 {
		return nil, fmt.Errorf("pmr: invalid splitting threshold %d", cfg.SplittingThreshold)
	}
	if cfg.MaxDepth < 1 || cfg.MaxDepth > geom.MaxDepth {
		return nil, fmt.Errorf("pmr: invalid max depth %d", cfg.MaxDepth)
	}
	valSize := 0
	if cfg.StoreMBR {
		valSize = qedgeValSize
	}
	bt, err := btree.New(pool, valSize, cfg.Compression)
	if err != nil {
		return nil, err
	}
	return &Tree{bt: bt, table: table, cfg: cfg}, nil
}

// qedgeValSize is the per-entry payload of the StoreMBR variant: the
// q-edge's bounding rectangle as four offsets from the block's lower-left
// corner. The paper notes "considerably less than 16 bytes will be
// required for the bounding rectangle" since the locational code already
// localizes it; 4 x 14 bits rounds to 8 bytes here.
const qedgeValSize = 8

// encodeQEdgeRect clips s to the block of c and encodes the clip's MBR
// relative to the block corner.
func encodeQEdgeRect(c geom.Code, s geom.Segment) []byte {
	block := c.Block()
	q, ok := block.ClipSegment(s)
	r := q.Bounds()
	if !ok {
		r = block // defensive: never stored for non-intersecting segments
	}
	// Clip endpoints are rounded to the grid, so grow the rectangle by one
	// pixel to keep the stored filter strictly conservative, then clamp
	// the spill back into the block.
	r = geom.Rect{
		Min: geom.Point{X: r.Min.X - 1, Y: r.Min.Y - 1},
		Max: geom.Point{X: r.Max.X + 1, Y: r.Max.Y + 1},
	}
	r, _ = r.Intersection(block)
	var buf [qedgeValSize]byte
	binary.LittleEndian.PutUint16(buf[0:], uint16(r.Min.X-block.Min.X))
	binary.LittleEndian.PutUint16(buf[2:], uint16(r.Min.Y-block.Min.Y))
	binary.LittleEndian.PutUint16(buf[4:], uint16(r.Max.X-block.Min.X))
	binary.LittleEndian.PutUint16(buf[6:], uint16(r.Max.Y-block.Min.Y))
	return buf[:]
}

// decodeQEdgeRect reverses encodeQEdgeRect. ok is false when the entry
// carries no payload (StoreMBR disabled).
func decodeQEdgeRect(c geom.Code, val []byte) (geom.Rect, bool) {
	if len(val) < qedgeValSize {
		return geom.Rect{}, false
	}
	corner := c.Corner()
	return geom.Rect{
		Min: geom.Point{
			X: corner.X + int32(binary.LittleEndian.Uint16(val[0:])),
			Y: corner.Y + int32(binary.LittleEndian.Uint16(val[2:])),
		},
		Max: geom.Point{
			X: corner.X + int32(binary.LittleEndian.Uint16(val[4:])),
			Y: corner.Y + int32(binary.LittleEndian.Uint16(val[6:])),
		},
	}, true
}

// insertQEdge stores the q-edge for segment id in block c, attaching the
// clipped MBR in the StoreMBR variant.
func (t *Tree) insertQEdge(c geom.Code, id seg.ID, s geom.Segment) error {
	if !t.cfg.StoreMBR {
		return t.bt.Insert(key(c, id))
	}
	return t.bt.InsertValue(key(c, id), encodeQEdgeRect(c, s))
}

// Name implements core.Index.
func (t *Tree) Name() string { return "PMR" }

// Table returns the segment table the q-edges point into.
func (t *Tree) Table() *seg.Table { return t.table }

// DiskStats returns the disk activity of the B-tree pages.
func (t *Tree) DiskStats() store.Stats { return t.bt.Pool().Stats() }

// Pool returns the buffer pool over the index's own pages.
func (t *Tree) Pool() *store.Pool { return t.bt.Pool() }

// SizeBytes returns the storage footprint of the B-tree pages.
func (t *Tree) SizeBytes() int64 { return t.bt.Pool().Disk().SizeBytes() }

// DropCache cold-starts the buffer pool, flushing dirty frames first.
func (t *Tree) DropCache() error { return t.bt.Pool().DropAll() }

// Len returns the number of distinct indexed segments.
func (t *Tree) Len() int { return t.count }

// QEdges returns the total number of (block, segment) entries — the
// duplication factor times Len.
func (t *Tree) QEdges() int { return t.bt.Len() }

// key packs a (block, segment) q-edge into a B-tree key: Morton(28) |
// depth(4) | segment id(32), so keys group by block in Z-order.
func key(c geom.Code, id seg.ID) uint64 {
	m, _ := c.MortonRange()
	return m<<36 | uint64(c.Depth())<<32 | uint64(id)
}

// keySeg extracts the segment id from a key.
func keySeg(k uint64) seg.ID { return seg.ID(k & 0xffffffff) }

// keyCode reconstructs the block code from a key.
func keyCode(k uint64) geom.Code {
	return geom.Code((k>>36)<<4 | (k >> 32 & 0xf))
}

// blockRange returns the key interval [lo, hi) covering the block's own
// entries and those of every nested block.
func blockRange(c geom.Code) (lo, hi uint64) {
	mlo, mhi := c.MortonRange()
	lo = mlo << 36
	if mhi >= 1<<28 {
		return lo, math.MaxUint64
	}
	return lo, mhi << 36
}

// touches reports whether the segment meets the block's *real* extent
// [corner, corner+side] — the boundary-inclusive square whose closures
// tile the plane with no sub-pixel gaps. Membership (and hence q-edge
// placement) uses this predicate rather than the closed integer extent so
// that any two continuously intersecting segments are guaranteed to share
// a block: their crossing point lies in the real extent of the leaf
// containing its integer floor, even when it falls in the gap where four
// integer blocks meet. (The spatial join's correctness rests on this.)
func touches(c geom.Code, s geom.Segment) bool {
	return reach(c).IntersectsSegment(s)
}

// reach returns the block's real extent as an integer rectangle: the
// closed block grown by one unit on its upper sides. A segment touches
// the block exactly when it intersects this rectangle.
func reach(c geom.Code) geom.Rect {
	b := c.Block()
	return geom.Rect{Min: b.Min, Max: geom.Point{X: b.Max.X + 1, Y: b.Max.Y + 1}}
}

// exactRange returns the key interval [lo, hi) of the block's own entries
// only.
func exactRange(c geom.Code) (lo, hi uint64) {
	mlo, _ := c.MortonRange()
	base := mlo<<36 | uint64(c.Depth())<<32
	return base, base + (1 << 32)
}

// leavesFor collects the codes of all leaf blocks of the implicit
// decomposition that intersect segment s — occupied leaves and the empty
// leaves induced by their siblings' splits.
//
// Rather than probing the structure top-down from the root (which would
// touch the leftmost B-tree page on every operation), it covers the
// segment's bounding box with at most four aligned blocks no smaller than
// the box, reads each cover's contiguous key range once, and reconstructs
// the local decomposition in memory from the occupied codes (a block is
// split exactly when an occupied block nests properly inside it). Leaves
// larger than a cover block are found via predecessor/successor key
// probes, which land on the same B-tree pages the scans touch. Every
// block test is charged to o. The result is valid until the next call.
func (t *Tree) leavesFor(s geom.Segment, o *obs.Op) ([]geom.Code, error) {
	o.NodeComps(1)
	if !geom.World().IntersectsSegment(s) {
		return nil, fmt.Errorf("pmr: segment %v outside the world", s)
	}
	bbox := s.Bounds()
	side := bbox.Width() + 1
	if h := bbox.Height() + 1; h > side {
		side = h
	}
	depth := 0
	for depth < t.cfg.MaxDepth && int64(geom.BlockSide(depth+1)) >= side {
		depth++
	}
	corners := [4]geom.Point{
		bbox.Min,
		{X: bbox.Max.X, Y: bbox.Min.Y},
		{X: bbox.Min.X, Y: bbox.Max.Y},
		bbox.Max,
	}
	out := t.leaves[:0]
	emit := func(c geom.Code) {
		if !slices.Contains(out, c) {
			out = append(out, c)
		}
	}
	var covered [4]geom.Code
	for i, corner := range corners {
		cover := geom.MakeCode(corner, depth)
		covered[i] = cover
		if slices.Contains(covered[:i], cover) {
			continue
		}
		o.NodeComps(1)
		if !touches(cover, s) {
			continue
		}
		// Occupied codes nested in (or equal to) the cover block.
		lo, hi := blockRange(cover)
		occupied := t.occupied[:0]
		if err := t.bt.Scan(lo, hi, func(k uint64) bool {
			c := keyCode(k)
			if len(occupied) == 0 || occupied[len(occupied)-1] != c {
				occupied = append(occupied, c)
			}
			return true
		}, nil); err != nil {
			return nil, err
		}
		t.occupied = occupied
		if len(occupied) == 0 {
			// The cover lies inside a leaf (occupied or empty) at least
			// as large as itself; locate it from the neighboring keys.
			leaf, err := t.leafCovering(cover)
			if err != nil {
				return nil, err
			}
			o.NodeComps(1)
			if touches(leaf, s) {
				emit(leaf)
			}
			continue
		}
		// An occupied leaf larger than the cover that shares its lower-left
		// corner stores its keys inside the cover's range (same Morton
		// base, smaller depth). By the antichain invariant it is then the
		// only code present, and the whole cover lies inside it.
		if enc := occupied[0]; enc.Depth() < depth && enc.Contains(cover) {
			o.NodeComps(1)
			if touches(enc, s) {
				emit(enc)
			}
			continue
		}
		// Reconstruct the decomposition below the cover: a block is split
		// iff an occupied block nests properly inside it.
		var walk func(c geom.Code)
		walk = func(c geom.Code) {
			split := false
			for _, oc := range occupied {
				if oc != c && c.Contains(oc) {
					split = true
					break
				}
			}
			if !split {
				emit(c)
				return
			}
			for q := 0; q < 4; q++ {
				child := c.Child(q)
				o.NodeComps(1)
				if touches(child, s) {
					walk(child)
				}
			}
		}
		walk(cover)
	}
	t.leaves = out
	return out, nil
}

// leafCovering returns the leaf block of the implicit decomposition that
// contains the (key-free) block c: the child, toward c, of c's deepest
// ancestor that the stored keys show to be split. With no keys at all the
// whole space is one root leaf.
func (t *Tree) leafCovering(c geom.Code) (geom.Code, error) {
	lo, hi := blockRange(c)
	deepest := -1
	if lo > 0 {
		kp, ok, err := t.bt.SeekLE(lo-1, nil)
		if err != nil {
			return 0, err
		}
		if ok {
			pc := keyCode(kp)
			if pc.Contains(c) {
				// c lies inside an occupied leaf.
				return pc, nil
			}
			if d := commonAncestorDepth(c, pc); d > deepest {
				deepest = d
			}
		}
	}
	var kn uint64
	found := false
	if err := t.bt.Scan(hi, ^uint64(0), func(k uint64) bool {
		kn, found = k, true
		return false
	}, nil); err != nil {
		return 0, err
	}
	if found {
		if d := commonAncestorDepth(c, keyCode(kn)); d > deepest {
			deepest = d
		}
	}
	if deepest < 0 {
		return geom.RootCode(), nil
	}
	// The empty leaf is c's ancestor one level below the deepest split
	// ancestor.
	leaf := c
	for leaf.Depth() > deepest+1 {
		leaf = leaf.Parent()
	}
	return leaf, nil
}

// commonAncestorDepth returns the depth of the smallest aligned block
// containing both blocks.
func commonAncestorDepth(a, b geom.Code) int {
	alo, ahi := a.MortonRange()
	blo, bhi := b.MortonRange()
	lo := alo
	if blo < lo {
		lo = blo
	}
	hi := ahi
	if bhi > hi {
		hi = bhi
	}
	hi-- // inclusive upper bound
	for d := minInt(a.Depth(), b.Depth()); d >= 0; d-- {
		shift := uint(2 * (geom.MaxDepth - d))
		if lo>>shift == hi>>shift {
			return d
		}
	}
	return 0
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Insert adds the segment with the given table ID to every leaf block it
// intersects, splitting blocks (once each) whose occupancy exceeds the
// splitting threshold. It charges o.
func (t *Tree) Insert(id seg.ID, o *obs.Op) error {
	s, err := t.table.GetObs(id, o)
	if err != nil {
		return err
	}
	leaves, err := t.leavesFor(s, o)
	if err != nil {
		return err
	}
	for _, c := range leaves {
		if err := t.insertQEdge(c, id, s); err != nil {
			return fmt.Errorf("pmr: inserting q-edge for segment %d: %w", id, err)
		}
		exLo, exHi := exactRange(c)
		occ, err := t.bt.CountRange(exLo, exHi, nil)
		if err != nil {
			return err
		}
		if occ > t.cfg.SplittingThreshold && c.Depth() < t.cfg.MaxDepth {
			if err := t.splitBlock(c, o); err != nil {
				return err
			}
		}
	}
	t.count++
	return nil
}

// splitBlock splits a leaf block once into its four quadrants,
// redistributing its q-edges, charging o.
func (t *Tree) splitBlock(c geom.Code, o *obs.Op) error {
	exLo, exHi := exactRange(c)
	members := t.members[:0]
	if err := t.bt.Scan(exLo, exHi, func(k uint64) bool {
		members = append(members, keySeg(k))
		return true
	}, nil); err != nil {
		return err
	}
	t.members = members
	for _, id := range members {
		if err := t.bt.Delete(key(c, id)); err != nil {
			return err
		}
	}
	for _, id := range members {
		s, err := t.table.GetObs(id, o)
		if err != nil {
			return err
		}
		for q := 0; q < 4; q++ {
			child := c.Child(q)
			o.NodeComps(1)
			if touches(child, s) {
				if err := t.insertQEdge(child, id, s); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// Delete removes the segment from every block containing it and merges
// blocks with their brothers while their combined occupancy falls below
// the splitting threshold. It charges o.
func (t *Tree) Delete(id seg.ID, o *obs.Op) error {
	s, err := t.table.GetObs(id, o)
	if err != nil {
		return err
	}
	leaves, err := t.leavesFor(s, o)
	if err != nil {
		return err
	}
	removed := 0
	for _, c := range leaves {
		switch err := t.bt.Delete(key(c, id)); err {
		case nil:
			removed++
		case btree.ErrNotFound:
			// The segment does not pass through this particular leaf's
			// subtree of the space — possible when it was never indexed.
		default:
			return err
		}
	}
	if removed == 0 {
		return seg.ErrNotIndexed
	}
	t.count--
	// Merge upward from each affected block.
	for _, c := range leaves {
		if err := t.mergeUpward(c, o); err != nil {
			return err
		}
	}
	return nil
}

// mergeUpward merges the block's parent while the distinct segments below
// it number fewer than the splitting threshold, charging o.
func (t *Tree) mergeUpward(c geom.Code, o *obs.Op) error {
	for c.Depth() > 0 {
		parent := c.Parent()
		lo, hi := blockRange(parent)
		seen := seg.AcquireSeen(t.table.Len())
		t.distinct = t.distinct[:0]
		err := t.bt.Scan(lo, hi, func(k uint64) bool {
			if id := keySeg(k); !seen.Has(id) {
				seen.Add(id)
				t.distinct = append(t.distinct, id)
			}
			return true
		}, nil)
		seg.ReleaseSeen(seen)
		if err != nil {
			return err
		}
		if len(t.distinct) >= t.cfg.SplittingThreshold {
			return nil
		}
		// Collect and remove every key below the parent, then store the
		// distinct segments at the parent itself, in first-seen order.
		t.keys = t.keys[:0]
		if err := t.bt.Scan(lo, hi, func(k uint64) bool {
			t.keys = append(t.keys, k)
			return true
		}, nil); err != nil {
			return err
		}
		for _, k := range t.keys {
			if err := t.bt.Delete(k); err != nil {
				return err
			}
		}
		for _, id := range t.distinct {
			if t.cfg.StoreMBR {
				s, err := t.table.GetObs(id, o)
				if err != nil {
					return err
				}
				if err := t.insertQEdge(parent, id, s); err != nil {
					return err
				}
				continue
			}
			if err := t.bt.Insert(key(parent, id)); err != nil {
				return err
			}
		}
		c = parent
	}
	return nil
}

// PersistMeta captures the quadtree's in-memory state (the underlying
// B-tree's metadata plus the distinct segment count) for serialization
// alongside its disk image.
func (t *Tree) PersistMeta() []uint64 {
	bm := t.bt.PersistMeta()
	return []uint64{bm[0], bm[1], bm[2], uint64(t.count)}
}

// Restore reattaches a PMR quadtree to a disk image previously saved with
// its PersistMeta. The pool must wrap the restored disk; cfg must match
// the original tree's and is re-validated here.
func Restore(pool *store.Pool, table *seg.Table, cfg Config, meta [4]uint64) (*Tree, error) {
	if cfg.SplittingThreshold < 1 {
		return nil, fmt.Errorf("pmr: invalid splitting threshold %d", cfg.SplittingThreshold)
	}
	if cfg.MaxDepth < 1 || cfg.MaxDepth > geom.MaxDepth {
		return nil, fmt.Errorf("pmr: invalid max depth %d", cfg.MaxDepth)
	}
	count := int(meta[3])
	if count < 0 || count > table.Len() {
		return nil, fmt.Errorf("pmr: segment count %d exceeds table size %d", count, table.Len())
	}
	valSize := 0
	if cfg.StoreMBR {
		valSize = qedgeValSize
	}
	bt, err := btree.Restore(pool, valSize, cfg.Compression, [3]uint64{meta[0], meta[1], meta[2]})
	if err != nil {
		return nil, err
	}
	return &Tree{bt: bt, table: table, cfg: cfg, count: count}, nil
}
