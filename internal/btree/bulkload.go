package btree

import (
	"fmt"

	"segdb/internal/store"
)

// BulkLoad builds a B+-tree bottom-up from n entries in strictly
// increasing key order, writing every page exactly once in sequential
// allocation order: leaves left to right (chained as they go), then each
// internal level, then the root. Compared with n repeated Inserts —
// which descend the tree and split pages as they fill — the build costs
// one write per page plus the pool's eviction traffic, with no splits
// and no random faults.
//
// at(i) returns entry i; val is ignored unless valueSize > 0 (it is
// padded or truncated to valueSize, as InsertValue does). Keys must be
// strictly increasing; a violation (e.g. a duplicate) aborts the build
// with an error, mirroring Insert's ErrDuplicate.
//
// Leaves are packed full except the last two, which share their keys
// evenly when the tail would otherwise underflow the B-tree's deletion
// minimum (cap/2); internal levels balance the same way. The resulting
// tree satisfies exactly the invariants Validate checks, and supports
// Insert/Delete afterwards (the first Insert into a full leaf simply
// splits it). With compression > 0 (see New) leaves are delta-coded and
// packed to the page's byte budget instead of a fixed key count, so the
// leaf count — and the disk accesses a later range scan pays — shrinks
// with the compression ratio.
func BulkLoad(pool *store.Pool, valueSize, compression, n int, at func(i int) (key uint64, val []byte)) (*Tree, error) {
	t, err := newTree(pool, valueSize, compression)
	if err != nil {
		return nil, err
	}
	if n < 0 {
		return nil, fmt.Errorf("btree: invalid entry count %d", n)
	}
	if n == 0 {
		if err := t.allocEmptyRoot(); err != nil {
			return nil, err
		}
		return t, nil
	}

	refs, err := t.bulkLeaves(n, at)
	if err != nil {
		return nil, err
	}

	// Internal levels, bottom-up: each node's separator keys are the
	// first keys of its children past the first, matching what leaf and
	// internal splits push up on the incremental path.
	height := 1
	level := refs
	for len(level) > 1 {
		height++
		maxChildren := t.internalCap + 1
		minChildren := t.internalCap/2 + 1
		sizes := chunkSizes(len(level), maxChildren, minChildren)
		next := make([]levelRef, 0, len(sizes))
		lo := 0
		for _, size := range sizes {
			children := level[lo : lo+size]
			lo += size
			id, data, err := pool.Allocate()
			if err != nil {
				return nil, err
			}
			in := page{data, internalStride}
			in.setChild(0, children[0].id)
			for _, c := range children[1:] {
				putChildEntry(in.insertAt(in.count()), c.firstKey, c.id)
			}
			pool.Unpin(id, true)
			next = append(next, levelRef{firstKey: children[0].firstKey, id: id})
		}
		level = next
	}
	t.root = level[0].id
	t.height = height
	t.count = n
	return t, nil
}

// levelRef describes one finished node to the level above: the smallest
// key in its subtree and its page.
type levelRef struct {
	firstKey uint64
	id       store.PageID
}

// bulkLeaves builds the leaf level left to right in the tree's two
// scratch images: a leaf is written when its successor is allocated, so
// the sibling chain needs no second pass (at most two pages are pinned
// at a time).
//
// Classic leaves are cut by chunkSizes (full pages, last two balanced
// above the deletion minimum). Delta-coded leaves are cut greedily by
// encoded bytes: an entry that would push the encoding past the page
// size starts the next leaf.
func (t *Tree) bulkLeaves(n int, at func(i int) (key uint64, val []byte)) ([]levelRef, error) {
	var cuts []int // entry counts per leaf, in order
	if !t.compress {
		cuts = chunkSizes(n, t.leafCap, t.leafCap/2)
	}
	refs := make([]levelRef, 0, len(cuts))
	var (
		last     uint64
		prevID   store.PageID
		prevData []byte
		prev     page // the last leaf allocated, written once its right sibling is
		k        int  // cur fills scratch[k], prev holds the other
	)
	cur := t.leafImage(t.scratch[0], store.NilPage)
	write := func() {
		if t.compress {
			writeCompressedLeaf(prevData, prev)
		} else {
			copy(prevData, prev.data[:prev.off(prev.count())])
		}
	}
	// flush allocates cur's page and writes prev, whose right sibling it
	// is; cur becomes prev.
	flush := func() error {
		id, data, err := t.pool.Allocate()
		if err != nil {
			if prevData != nil {
				t.pool.Unpin(prevID, false)
			}
			return err
		}
		if prevData != nil {
			prev.setNext(id)
			write()
			t.pool.Unpin(prevID, true)
		}
		refs = append(refs, levelRef{firstKey: cur.key(0), id: id})
		prevID, prevData, prev, k = id, data, cur, 1-k
		cur = t.leafImage(t.scratch[k], store.NilPage)
		return nil
	}
	for i := 0; i < n; i++ {
		key, val := at(i)
		if i > 0 && key <= last {
			if prevData != nil {
				t.pool.Unpin(prevID, false)
			}
			return nil, fmt.Errorf("btree: bulk load keys not strictly increasing at entry %d (%d after %d)", i, key, last)
		}
		last = key
		putEntry(cur.insertAt(cur.count()), key, val)
		switch {
		case t.compress && encodedSize(cur) > t.pool.PageSize():
			// The page is one entry over budget: the overflow entry
			// starts the next leaf.
			over := cur.count() - 1
			cur.setCount(over)
			if err := flush(); err != nil {
				return nil, err
			}
			cur.append(prev.entries(over, over+1))
		case !t.compress && cur.count() == cuts[len(refs)]:
			if err := flush(); err != nil {
				return nil, err
			}
		}
	}
	if t.compress {
		if err := flush(); err != nil {
			return nil, err
		}
	}
	write()
	t.pool.Unpin(prevID, true)
	return refs, nil
}

// chunkSizes splits n items into maximal chunks of at most max, then
// rebalances the last two chunks evenly when the tail chunk would fall
// under min (the non-root occupancy floor). With a single chunk (the
// root) any size is legal.
func chunkSizes(n, max, min int) []int {
	count := (n + max - 1) / max
	sizes := make([]int, count)
	for i := range sizes {
		sizes[i] = max
	}
	sizes[count-1] = n - (count-1)*max
	if count > 1 && sizes[count-1] < min {
		total := sizes[count-2] + sizes[count-1]
		sizes[count-2] = total - total/2
		sizes[count-1] = total / 2
	}
	return sizes
}
