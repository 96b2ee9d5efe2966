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
	v, err := t.viewObs(id, o)
	if err != nil {
		return 0, false, err
	}
	if level == 1 {
		key, ok, err := t.leafLE(v, k)
		v.Release()
		return key, ok, err
	}
	p, err := classic(v.Data(), false, t.valSize)
	if err != nil {
		v.Release()
		return 0, false, err
	}
	// The natural child may hold no key <= k (k smaller than everything
	// in it); fall back to its left sibling, whose keys all lie below the
	// separator and hence <= k. No non-root subtree is empty, so one step
	// back always finds one. The ids are read before the pin drops, so
	// none is held below this page.
	ci := p.upperBound(k)
	kids := [2]store.PageID{p.child(ci)}
	if ci > 0 {
		kids[1] = p.child(ci - 1)
	}
	v.Release()
	for _, c := range kids[:min(ci, 1)+1] {
		key, ok, err := t.seekLE(c, level-1, k, o)
		if err != nil || ok {
			return key, ok, err
		}
	}
	return 0, false, nil
}

// leafLE returns the viewed leaf's largest key <= k.
func (t *Tree) leafLE(v store.View, k uint64) (uint64, bool, error) {
	p, err := t.leaf(v)
	if err != nil {
		return 0, false, err
	}
	if i := p.upperBound(k); i > 0 {
		return p.key(i - 1), true, nil
	}
	return 0, false, nil
}
