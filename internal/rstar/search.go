package rstar

import (
	"segdb/internal/geom"
	"segdb/internal/obs"
	"segdb/internal/seg"
	"segdb/internal/store"
)

// Delete removes a segment, condensing underfull nodes by reinsertion (the
// classic R-tree CondenseTree step), charging o.
func (t *Tree) Delete(id seg.ID, o *obs.Op) error {
	s, err := t.Segs.GetObs(id, o)
	if err != nil {
		return err
	}
	t.w.o = o
	r := s.Bounds()
	var orphans []pending
	found, _, err := t.deleteRec(t.Root, t.Levels, id, r, &orphans)
	if err != nil {
		return err
	}
	if !found {
		return seg.ErrNotIndexed
	}
	t.Count--
	// CondenseTree: reinsert orphaned entries at their original levels,
	// then shrink the root while it is an internal node with one child.
	for _, o := range orphans {
		if err := t.insertAll(o); err != nil {
			return err
		}
	}
	for t.Levels > 1 {
		n, err := t.ReadNode(t.Root, t.Levels)
		if err != nil {
			return err
		}
		if len(n.Entries) != 1 {
			break
		}
		old := t.Root
		t.Root = store.PageID(n.Entries[0].Ptr)
		t.Levels--
		t.Pool.Free(old)
	}
	return nil
}

// deleteRec removes the entry from the subtree. It returns whether the
// entry was found and whether this node became underfull and was emptied
// into the orphan list (in which case the caller removes its entry).
func (t *Tree) deleteRec(id store.PageID, level int, target seg.ID, r geom.Rect, orphans *[]pending) (found, removed bool, err error) {
	n, err := t.ReadNode(id, level)
	if err != nil {
		return false, false, err
	}
	if n.Leaf {
		for i, e := range n.Entries {
			t.w.o.NodeComps(1)
			if seg.ID(e.Ptr) != target {
				continue
			}
			n.Entries = append(n.Entries[:i], n.Entries[i+1:]...)
			if len(n.Entries) < t.min && level != t.Levels {
				for _, rest := range n.Entries {
					*orphans = append(*orphans, pending{e: rest, level: level})
				}
				t.Pool.Free(id)
				return true, true, nil
			}
			return true, false, t.WriteNode(id, n)
		}
		return false, false, nil
	}
	for i := 0; i < len(n.Entries); i++ {
		e := n.Entries[i]
		t.w.o.NodeComps(1)
		if !e.Rect.ContainsRect(r) {
			continue
		}
		f, rm, err := t.deleteRec(store.PageID(e.Ptr), level-1, target, r, orphans)
		if err != nil {
			return false, false, err
		}
		if !f {
			continue
		}
		if rm {
			n.Entries = append(n.Entries[:i], n.Entries[i+1:]...)
		} else {
			child, err := t.ReadNode(store.PageID(e.Ptr), level-1)
			if err != nil {
				return false, false, err
			}
			n.Entries[i].Rect = child.MBR()
		}
		if len(n.Entries) < t.min && level != t.Levels {
			for _, rest := range n.Entries {
				*orphans = append(*orphans, pending{e: rest, level: level})
			}
			t.Pool.Free(id)
			return true, true, nil
		}
		return true, false, t.WriteNode(id, n)
	}
	return false, false, nil
}
