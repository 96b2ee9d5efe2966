// Package grid implements the uniform grid of §2 (Figure 1) of the paper:
// space is divided into equal-size cells and every cell stores the
// q-edges of the segments crossing it.
//
// The paper uses the uniform grid as the foil for the quadtree-based
// regular decomposition: "ideal for uniformly distributed data" but
// wasteful for the skewed distributions of real maps. It is included here
// as the baseline for that ablation. The linear representation reuses the
// same disk B+-tree as the PMR quadtree, keyed by cell index, so the two
// structures differ only in their decomposition rule.
package grid

import (
	"fmt"
	"sync"

	"segdb/internal/btree"
	"segdb/internal/core"
	"segdb/internal/geom"
	"segdb/internal/knn"
	"segdb/internal/obs"
	"segdb/internal/seg"
	"segdb/internal/store"
)

// Config carries the grid resolution.
type Config struct {
	// CellsPerSide is the number of cells along each axis.
	CellsPerSide int32
	// Compression selects the B+-tree leaf format: 0 writes classic
	// fixed-width entries, >=1 delta-coded varint keys (cell keys are
	// sorted, so entries within one cell differ only in the low id
	// bits). Lossless at every level.
	Compression int
}

// DefaultConfig returns a 64x64 grid (256-pixel cells on the 16K world).
func DefaultConfig() Config { return Config{CellsPerSide: 64} }

// Grid is a disk-resident uniform grid over line segments.
type Grid struct {
	bt       *btree.Tree
	table    *seg.Table
	n        int32 // cells per side
	cellSize int32
	count    int
}

// New creates an empty grid.
func New(pool *store.Pool, table *seg.Table, cfg Config) (*Grid, error) {
	if cfg.CellsPerSide < 1 || cfg.CellsPerSide > geom.WorldSize {
		return nil, fmt.Errorf("grid: invalid resolution %d", cfg.CellsPerSide)
	}
	if geom.WorldSize%cfg.CellsPerSide != 0 {
		return nil, fmt.Errorf("grid: resolution %d does not divide the world size", cfg.CellsPerSide)
	}
	bt, err := btree.NewWithOptions(pool, 0, cfg.Compression)
	if err != nil {
		return nil, err
	}
	return &Grid{
		bt:       bt,
		table:    table,
		n:        cfg.CellsPerSide,
		cellSize: geom.WorldSize / cfg.CellsPerSide,
	}, nil
}

// Name implements core.Index.
func (g *Grid) Name() string { return "uniform-grid" }

// Table returns the segment table.
func (g *Grid) Table() *seg.Table { return g.table }

// DiskStats returns the disk activity of the grid's pages.
func (g *Grid) DiskStats() store.Stats { return g.bt.Pool().Stats() }

// SizeBytes returns the storage footprint.
func (g *Grid) SizeBytes() int64 { return g.bt.Pool().Disk().SizeBytes() }

// DropCache cold-starts the buffer pool, flushing dirty frames first.
func (g *Grid) DropCache() error { return g.bt.Pool().DropAll() }

// Len returns the number of distinct indexed segments.
func (g *Grid) Len() int { return g.count }

// QEdges returns the total number of (cell, segment) entries.
func (g *Grid) QEdges() int { return g.bt.Len() }

// key packs a (cell, segment) pair: cell index in the high 32 bits.
func (g *Grid) key(cx, cy int32, id seg.ID) uint64 {
	return uint64(cy)<<cellKeyShiftY | uint64(cx)<<32 | uint64(id)
}

// Cell indexes fit in 16 bits each (CellsPerSide <= WorldSize = 2^14).
const cellKeyShiftY = 48

func (g *Grid) cellRect(cx, cy int32) geom.Rect {
	return geom.Rect{
		Min: geom.Point{X: cx * g.cellSize, Y: cy * g.cellSize},
		Max: geom.Point{X: (cx+1)*g.cellSize - 1, Y: (cy+1)*g.cellSize - 1},
	}
}

func (g *Grid) cellOf(p geom.Point) (int32, int32) {
	return p.X / g.cellSize, p.Y / g.cellSize
}

// cellsFor visits every cell the segment intersects, charging o one cell
// computation per cell of the segment's bounding box.
func (g *Grid) cellsFor(s geom.Segment, o *obs.Op, visit func(cx, cy int32) error) error {
	b := s.Bounds()
	cx0, cy0 := g.cellOf(b.Min)
	cx1, cy1 := g.cellOf(b.Max)
	for cy := cy0; cy <= cy1; cy++ {
		for cx := cx0; cx <= cx1; cx++ {
			o.NodeComps(1)
			if g.cellRect(cx, cy).IntersectsSegment(s) {
				if err := visit(cx, cy); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// Insert adds the segment to every cell it crosses, charging o.
func (g *Grid) Insert(id seg.ID, o *obs.Op) error {
	s, err := g.table.GetObs(id, o)
	if err != nil {
		return err
	}
	if err := g.cellsFor(s, o, func(cx, cy int32) error {
		return g.bt.Insert(g.key(cx, cy, id))
	}); err != nil {
		return err
	}
	g.count++
	return nil
}

// Delete removes the segment from every cell it crosses, charging o.
func (g *Grid) Delete(id seg.ID, o *obs.Op) error {
	s, err := g.table.GetObs(id, o)
	if err != nil {
		return err
	}
	removed := 0
	if err := g.cellsFor(s, o, func(cx, cy int32) error {
		switch err := g.bt.Delete(g.key(cx, cy, id)); err {
		case nil:
			removed++
			return nil
		case btree.ErrNotFound:
			return nil
		default:
			return err
		}
	}); err != nil {
		return err
	}
	if removed == 0 {
		return seg.ErrNotIndexed
	}
	g.count--
	return nil
}

// cellMembers appends the distinct segment ids stored in a cell to dst.
// Queries pass one buffer (truncated between cells) through their whole
// cell sweep, so member collection does not allocate once the buffer has
// grown to the densest cell visited.
func (g *Grid) cellMembers(cx, cy int32, dst []seg.ID, o *obs.Op) ([]seg.ID, error) {
	lo := g.key(cx, cy, 0)
	hi := lo + (1 << 32)
	err := g.bt.Scan(lo, hi, func(k uint64) bool {
		dst = append(dst, seg.ID(k&0xffffffff))
		return true
	}, o)
	return dst, err
}

// Query-scratch pools: the cell member buffer and the nearest-neighbor
// priority queue are recycled across queries (like the shared
// duplicate-suppression set, seg.AcquireSeen) so warm window/nearest
// searches allocate nothing.
var (
	membersPool = sync.Pool{New: func() any { return new([]seg.ID) }}
	nnPool      = sync.Pool{New: func() any { return new(nnScratch) }}
)

// WindowObs visits every segment intersecting r exactly once.
func (g *Grid) WindowObs(r geom.Rect, visit func(id seg.ID, s geom.Segment) bool, o *obs.Op) error {
	cx0, cy0 := g.cellOf(r.Min)
	cx1, cy1 := g.cellOf(r.Max)
	seen := seg.AcquireSeen()
	defer seg.ReleaseSeen(seen)
	mp := membersPool.Get().(*[]seg.ID)
	defer func() { membersPool.Put(mp) }()
	cur := g.table.Cursor(o)
	defer cur.Close()
	for cy := cy0; cy <= cy1; cy++ {
		for cx := cx0; cx <= cx1; cx++ {
			o.NodeComps(1)
			members, err := g.cellMembers(cx, cy, (*mp)[:0], o)
			*mp = members[:0]
			if err != nil {
				if !store.IsUnavailable(err) {
					return err
				}
				// Degraded mode: the cell's B-tree page is quarantined.
				// Keep whatever members the scan reached and move on to
				// the next cell (partial results).
			}
			for _, id := range members {
				if _, dup := seen[id]; dup {
					continue
				}
				s, err := cur.Get(id)
				if err != nil {
					if store.IsUnavailable(err) {
						continue // degraded: segment's table page is gone
					}
					return err
				}
				if !r.IntersectsSegment(s) {
					continue
				}
				seen[id] = struct{}{}
				if !visit(id, s) {
					return nil
				}
			}
		}
	}
	return nil
}

// nnEntry is the payload of a k-NN queue item: a fetched segment.
type nnEntry struct {
	id seg.ID
	s  geom.Segment
}

// nnScratch is the pooled working memory of one nearest-neighbor search:
// the queue and the payloads its items' Slots index.
type nnScratch struct {
	q    knn.Queue
	segs []nnEntry
}

// NearestKAppendObs appends to dst up to k segments in increasing
// distance from p. Rings of cells are examined outward from the query
// point, keeping a candidate priority queue, until the k-th best
// candidate provably beats everything in unexamined rings. All query
// scratch (queue, duplicate set, member buffer) is pooled, so with a
// reused dst a warm query's search machinery allocates nothing.
func (g *Grid) NearestKAppendObs(p geom.Point, k int, dst []core.NearestResult, o *obs.Op) ([]core.NearestResult, error) {
	base := len(dst)
	sc := nnPool.Get().(*nnScratch)
	sc.q.Reset(k)
	sc.segs = sc.segs[:0]
	defer nnPool.Put(sc)
	q := &sc.q
	emit := func() {
		it := q.Pop()
		e := sc.segs[it.Slot]
		dst = append(dst, core.NearestResult{ID: e.id, Seg: e.s, DistSq: it.DistSq, Found: true})
	}
	seen := seg.AcquireSeen()
	defer seg.ReleaseSeen(seen)
	mp := membersPool.Get().(*[]seg.ID)
	defer func() { membersPool.Put(mp) }()
	cur := g.table.Cursor(o)
	defer cur.Close()
	pcx, pcy := g.cellOf(p)
	examine := func(cx, cy int32) error {
		if cx < 0 || cy < 0 || cx >= g.n || cy >= g.n {
			return nil
		}
		o.NodeComps(1)
		members, err := g.cellMembers(cx, cy, (*mp)[:0], o)
		*mp = members[:0]
		if err != nil {
			if !store.IsUnavailable(err) {
				return err
			}
			// Degraded: rank the members gathered before the quarantined
			// page; the lost remainder is skipped.
		}
		for _, id := range members {
			if _, dup := seen[id]; dup {
				continue
			}
			seen[id] = struct{}{}
			s, err := cur.Get(id)
			if err != nil {
				if store.IsUnavailable(err) {
					continue // degraded: segment's table page is gone
				}
				return err
			}
			if q.PushExact(geom.DistSqPointSegment(p, s), uint32(len(sc.segs))) {
				sc.segs = append(sc.segs, nnEntry{id: id, s: s})
			}
		}
		return nil
	}
	for ring := int32(0); ring < 2*g.n; ring++ {
		// All cells whose Chebyshev cell-distance from (pcx,pcy) is ring.
		if ring == 0 {
			if err := examine(pcx, pcy); err != nil {
				return dst, err
			}
		} else {
			for d := -ring; d <= ring; d++ {
				for _, c := range [4][2]int32{
					{pcx + d, pcy - ring}, {pcx + d, pcy + ring},
					{pcx - ring, pcy + d}, {pcx + ring, pcy + d},
				} {
					if err := examine(c[0], c[1]); err != nil {
						return dst, err
					}
				}
			}
		}
		// Cells in later rings lie at least (ring-1)*cellSize from p (p
		// sits somewhere inside its own cell), and any segment passing
		// closer would be stored in a cell already examined, so every
		// candidate at or below that bound is final.
		bound := (float64(ring) - 1) * float64(g.cellSize)
		if bound > 0 {
			b2 := bound * bound
			for q.Len() > 0 && len(dst)-base < k && q.Min().DistSq <= b2 {
				emit()
			}
			if len(dst)-base >= k {
				return dst, nil
			}
		}
	}
	// Rings exhausted: everything remaining is final.
	for q.Len() > 0 && len(dst)-base < k {
		emit()
	}
	return dst, nil
}

// PersistMeta captures the grid's in-memory state (the underlying
// B-tree's metadata plus the distinct segment count) for serialization
// alongside its disk image.
func (g *Grid) PersistMeta() []uint64 {
	bm := g.bt.PersistMeta()
	return []uint64{bm[0], bm[1], bm[2], uint64(g.count)}
}

// Restore reattaches a grid to a disk image previously saved with its
// PersistMeta. The pool must wrap the restored disk; cfg must match the
// original grid's and is re-validated here so a corrupted configuration
// cannot divide by zero.
func Restore(pool *store.Pool, table *seg.Table, cfg Config, meta [4]uint64) (*Grid, error) {
	if cfg.CellsPerSide < 1 || cfg.CellsPerSide > geom.WorldSize {
		return nil, fmt.Errorf("grid: invalid resolution %d", cfg.CellsPerSide)
	}
	if geom.WorldSize%cfg.CellsPerSide != 0 {
		return nil, fmt.Errorf("grid: resolution %d does not divide the world size", cfg.CellsPerSide)
	}
	count := int(meta[3])
	if count < 0 || count > table.Len() {
		return nil, fmt.Errorf("grid: segment count %d exceeds table size %d", count, table.Len())
	}
	bt, err := btree.RestoreWithOptions(pool, 0, cfg.Compression, [3]uint64{meta[0], meta[1], meta[2]})
	if err != nil {
		return nil, err
	}
	return &Grid{
		bt:       bt,
		table:    table,
		n:        cfg.CellsPerSide,
		cellSize: geom.WorldSize / cfg.CellsPerSide,
		count:    count,
	}, nil
}

// Validate checks the grid's structural invariants: the underlying
// B-tree validates, every key names a cell inside the grid, every
// (cell, segment) entry points at a stored segment that intersects the
// cell's rectangle, and the number of distinct segments matches the
// recorded count.
func (g *Grid) Validate(o *obs.Op) error {
	if err := g.bt.Validate(); err != nil {
		return err
	}
	distinct := make(map[seg.ID]struct{})
	var verr error
	err := g.bt.Scan(0, ^uint64(0), func(k uint64) bool {
		cy := int32(k >> cellKeyShiftY)
		cx := int32(k>>32) & 0xffff
		id := seg.ID(k & 0xffffffff)
		if cx >= g.n || cy >= g.n {
			verr = fmt.Errorf("grid: entry for cell (%d,%d) outside %dx%d grid", cx, cy, g.n, g.n)
			return false
		}
		s, err := g.table.GetObs(id, o)
		if err != nil {
			verr = fmt.Errorf("grid: cell (%d,%d): %w", cx, cy, err)
			return false
		}
		if !g.cellRect(cx, cy).IntersectsSegment(s) {
			verr = fmt.Errorf("grid: segment %d stored in cell (%d,%d) it does not intersect", id, cx, cy)
			return false
		}
		distinct[id] = struct{}{}
		return true
	}, nil)
	if err != nil {
		return err
	}
	if verr != nil {
		return verr
	}
	if len(distinct) != g.count {
		return fmt.Errorf("grid: %d distinct segments stored, count records %d", len(distinct), g.count)
	}
	return nil
}
