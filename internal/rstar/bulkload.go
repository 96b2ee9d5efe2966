package rstar

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"segdb/internal/bulk"
	"segdb/internal/rpage"
	"segdb/internal/seg"
	"segdb/internal/store"
)

// BulkLoad builds a packed R-tree over the given segments with the
// Sort-Tile-Recursive algorithm (Leutenegger et al.): entries are sorted
// into √n vertical slices by center x, each slice sorted by center y, and
// packed into leaves at the target fill; upper levels pack the same way
// recursively. The sorts tie-break on the entry pointer (segment IDs at
// the leaf level, freshly allocated page IDs above — unique either way),
// so the packing is a strict total order and the disk image is
// deterministic.
//
// The paper builds its trees by one-at-a-time insertion (that is what
// Table 1 measures), so bulk loading is an extension: it shows how much
// of the R*-tree's build cost is the price of incremental maintenance.
// The resulting tree answers queries through the same code paths.
func BulkLoad(pool *store.Pool, table *seg.Table, cfg Config, ids []seg.ID) (*Tree, error) {
	t, err := New(pool, table, cfg)
	if err != nil {
		return nil, err
	}
	if len(ids) == 0 {
		return t, nil
	}
	// Target fill: pack to ~80% so later inserts do not split immediately.
	perNode := t.Max * 4 / 5
	if perNode < 2 {
		perNode = 2
	}

	fetched, err := bulk.Fetch(table, ids)
	if err != nil {
		return nil, err
	}
	entries := make([]rpage.Entry, len(fetched))
	for i, e := range fetched {
		entries[i] = rpage.Entry{Rect: e.Seg.Bounds(), Ptr: uint32(e.ID)}
	}
	// Free the empty root New allocated; the packing allocates its own.
	pool.Free(t.Root)

	level := entries
	leaf := true
	height := 0
	for {
		height++
		nodes, err := t.packLevel(level, perNode, leaf)
		if err != nil {
			return nil, err
		}
		if len(nodes) == 1 {
			t.Root = store.PageID(nodes[0].Ptr)
			t.Levels = height
			t.Count = len(ids)
			return t, nil
		}
		level = nodes
		leaf = false
	}
}

// packLevel tiles one level's entries into nodes of ~perNode entries and
// returns the parent entries describing them. Slices and nodes receive
// evenly balanced shares so that no non-root node falls under the m
// minimum (the tail of a naive greedy packing would).
func (t *Tree) packLevel(entries []rpage.Entry, perNode int, leaf bool) ([]rpage.Entry, error) {
	nodeCount := (len(entries) + perNode - 1) / perNode
	sliceCount := int(math.Ceil(math.Sqrt(float64(nodeCount))))

	sortByCenter(entries, false)
	var parents []rpage.Entry
	for _, slice := range evenChunks(entries, sliceCount) {
		sortByCenter(slice, true)
		nodesInSlice := (len(slice) + perNode - 1) / perNode
		for _, group := range evenChunks(slice, nodesInSlice) {
			n := &rpage.Node{Leaf: leaf, Entries: group}
			id, err := t.AllocNode(n)
			if err != nil {
				return nil, err
			}
			parents = append(parents, rpage.Entry{Rect: n.MBR(), Ptr: uint32(id)})
		}
	}
	if len(parents) == 0 {
		return nil, fmt.Errorf("rstar: bulk load packed no nodes")
	}
	return parents, nil
}

// sortByCenter sorts entries by their center's x (or y), tie-broken by
// the entry pointer, which is unique within a level. Each key is
// computed once, not once per comparison: the center in the high word
// with its sign bit flipped, so unsigned order is signed order, and the
// pointer in the low word.
func sortByCenter(entries []rpage.Entry, y bool) {
	type keyed struct {
		key uint64
		e   rpage.Entry
	}
	ks := make([]keyed, len(entries))
	for i, e := range entries {
		c := e.Rect.Center()
		v := c.X
		if y {
			v = c.Y
		}
		ks[i] = keyed{uint64(uint32(v)^1<<31)<<32 | uint64(e.Ptr), e}
	}
	slices.SortFunc(ks, func(a, b keyed) int { return cmp.Compare(a.key, b.key) })
	for i, k := range ks {
		entries[i] = k.e
	}
}

// evenChunks splits s into at most n contiguous chunks whose sizes differ
// by at most one.
func evenChunks(s []rpage.Entry, n int) [][]rpage.Entry {
	if n > len(s) {
		n = len(s)
	}
	if n <= 0 {
		return nil
	}
	out := make([][]rpage.Entry, 0, n)
	base := len(s) / n
	extra := len(s) % n
	lo := 0
	for i := 0; i < n; i++ {
		size := base
		if i < extra {
			size++
		}
		out = append(out, s[lo:lo+size])
		lo += size
	}
	return out
}
