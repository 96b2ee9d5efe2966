// Package rsearch is the part of an R-tree-family index that does not
// depend on how the tree was built: the paged node storage, the window
// traversal, and the incremental nearest-neighbor search. The R*-tree
// and Guttman R-tree (package rstar) and the hybrid R+-tree and
// k-d-B-tree (package rplus) differ in insertion, splitting, deletion
// and their structural invariants; they all answer queries through the
// one traversal here, so the paper's counters are charged by the same
// code for every one of them.
//
// The single difference the read path knows about is fixed when the
// tree is created: a structure that stores a segment in every leaf it
// crosses (R+, k-d-B) suppresses duplicates with a pooled per-query
// set; one that stores each segment once (R*, R) carries none.
package rsearch

import (
	"fmt"

	"segdb/internal/rpage"
	"segdb/internal/seg"
	"segdb/internal/store"
)

// Tree is the state shared by every R-tree-family index. The building
// package embeds it and maintains Root, Levels and Count as it inserts,
// splits and deletes.
type Tree struct {
	Pool   *store.Pool
	Segs   *seg.Table
	Root   store.PageID
	Levels int  // 1 = root is a leaf
	Max    int  // M: page capacity in entries
	Format int  // page compression level new writes use
	Count  int  // distinct segments indexed
	dedup  bool // leaves may repeat a segment
}

// attach fills in the fields every tree derives from its pool.
func attach(pool *store.Pool, table *seg.Table, format int, dedup bool) (*Tree, error) {
	max := rpage.CapacityLevel(pool.PageSize(), format)
	if max < 4 {
		return nil, fmt.Errorf("rsearch: page size %d too small", pool.PageSize())
	}
	return &Tree{Pool: pool, Segs: table, Max: max, Format: format, dedup: dedup}, nil
}

// New creates an empty tree — a single empty leaf — whose nodes live on
// pages of pool, written at the given page compression level, and whose
// leaf entries point into table. dedup states that the structure may
// store one segment in several leaves.
func New(pool *store.Pool, table *seg.Table, format int, dedup bool) (*Tree, error) {
	t, err := attach(pool, table, format, dedup)
	if err != nil {
		return nil, err
	}
	if t.Root, err = t.AllocNode(&rpage.Node{Leaf: true}); err != nil {
		return nil, err
	}
	t.Levels = 1
	return t, nil
}

// PersistMeta captures the tree's in-memory state (root page, height,
// segment count) for serialization alongside its disk image.
func (t *Tree) PersistMeta() []uint64 {
	return []uint64{uint64(t.Root), uint64(t.Levels), uint64(t.Count)}
}

// maxHeight bounds a plausible tree height: even a binary-fanout tree of
// this height exceeds any restorable page count.
const maxHeight = 64

// Restore reattaches a tree to a disk image previously saved with its
// PersistMeta. The pool must wrap the restored disk. It does not
// allocate (and so never grows the restored disk); the metadata is
// validated before use.
func Restore(pool *store.Pool, table *seg.Table, format int, dedup bool, meta [3]uint64) (*Tree, error) {
	t, err := attach(pool, table, format, dedup)
	if err != nil {
		return nil, err
	}
	t.Root, t.Levels, t.Count = store.PageID(meta[0]), int(meta[1]), int(meta[2])
	if int(t.Root) >= pool.Disk().PageCount() {
		return nil, fmt.Errorf("rsearch: root page %d outside disk (%d pages): %w", t.Root, pool.Disk().PageCount(), store.ErrBadPage)
	}
	if t.Levels < 1 || t.Levels > maxHeight {
		return nil, fmt.Errorf("rsearch: invalid height %d", t.Levels)
	}
	if t.Count < 0 || t.Count > table.Len() {
		return nil, fmt.Errorf("rsearch: segment count %d exceeds table size %d", t.Count, table.Len())
	}
	return t, nil
}

// Table returns the segment table the leaf entries point into.
func (t *Tree) Table() *seg.Table { return t.Segs }

// DiskStats returns the disk activity of the tree's own pages.
func (t *Tree) DiskStats() store.Stats { return t.Pool.Stats() }

// SizeBytes returns the storage footprint of the tree pages.
func (t *Tree) SizeBytes() int64 { return t.Pool.Disk().SizeBytes() }

// DropCache cold-starts the tree's buffer pool, flushing dirty frames
// first.
func (t *Tree) DropCache() error { return t.Pool.DropAll() }

// Len returns the number of distinct indexed segments.
func (t *Tree) Len() int { return t.Count }

// Height returns the number of levels (1 when the root is a leaf).
func (t *Tree) Height() int { return t.Levels }

// MaxEntries returns M (test and reporting hook).
func (t *Tree) MaxEntries() int { return t.Max }

// ReadNode fetches a node in its mutable array-of-entries form, for the
// write path and the validators.
func (t *Tree) ReadNode(id store.PageID) (*rpage.Node, error) {
	data, err := t.Pool.Get(id)
	if err != nil {
		return nil, err
	}
	n, err := rpage.Read(data)
	t.Pool.Unpin(id, false)
	return n, err
}

// WriteNode serializes n over page id.
func (t *Tree) WriteNode(id store.PageID, n *rpage.Node) error {
	data, err := t.Pool.Get(id)
	if err != nil {
		return err
	}
	if err := rpage.WriteLevel(data, n, t.Format); err != nil {
		t.Pool.Unpin(id, false)
		return err
	}
	t.Pool.Unpin(id, true)
	return nil
}

// AllocNode serializes n onto a freshly allocated page.
func (t *Tree) AllocNode(n *rpage.Node) (store.PageID, error) {
	id, data, err := t.Pool.Allocate()
	if err != nil {
		return store.NilPage, err
	}
	if err := rpage.WriteLevel(data, n, t.Format); err != nil {
		t.Pool.Unpin(id, false)
		return store.NilPage, err
	}
	t.Pool.Unpin(id, true)
	return id, nil
}

// AvgLeafOccupancy returns the mean number of segment entries per leaf
// page — the "average number of line segments in a page" quoted in §7 of
// the paper (36 for the R*-tree, 32 for the R+-tree, whose duplication
// makes it lower).
func (t *Tree) AvgLeafOccupancy() (float64, error) {
	entries, leaves := 0, 0
	if err := t.countLeaves(t.Root, &entries, &leaves); err != nil {
		return 0, err
	}
	if leaves == 0 {
		return 0, nil
	}
	return float64(entries) / float64(leaves), nil
}

func (t *Tree) countLeaves(id store.PageID, entries, leaves *int) error {
	n, err := t.ReadNode(id)
	if err != nil {
		return err
	}
	if n.Leaf {
		*entries += len(n.Entries)
		*leaves++
		return nil
	}
	for _, e := range n.Entries {
		if err := t.countLeaves(store.PageID(e.Ptr), entries, leaves); err != nil {
			return err
		}
	}
	return nil
}
