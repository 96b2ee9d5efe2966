package btree

import (
	"segdb/internal/obs"
	"segdb/internal/store"
)

// SeekLE returns the largest key <= k, or ok=false when no such key
// exists. It is the predecessor search that the linear quadtree's point
// location relies on: the leaf block containing a point is found from the
// predecessor of the point's full-resolution locational key. Page
// requests are charged to o (nil charges nothing).
func (t *Tree) SeekLE(k uint64, o *obs.Op) (uint64, bool, error) {
	return t.seekLE(t.root, t.height, k, o)
}

func (t *Tree) seekLE(id store.PageID, level int, k uint64, o *obs.Op) (uint64, bool, error) {
	n, err := t.read(id, o)
	if err != nil {
		return 0, false, err
	}
	ci := upperBound(n.keys, k)
	if level == 1 {
		if ci == 0 {
			return 0, false, nil
		}
		return n.keys[ci-1], true, nil
	}
	// The natural child may hold no key <= k (k smaller than everything
	// in it); fall back through the left siblings, whose keys are all
	// below the separator and hence <= k.
	for ; ci >= 0; ci-- {
		v, ok, err := t.seekLE(n.children[ci], level-1, k, o)
		if err != nil {
			return 0, false, err
		}
		if ok {
			return v, true, nil
		}
	}
	return 0, false, nil
}
