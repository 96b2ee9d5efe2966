package rplus

import (
	"segdb/internal/geom"
	"segdb/internal/obs"
	"segdb/internal/seg"
	"segdb/internal/store"
)

// Delete removes the segment from every leaf containing it. The R+-tree
// literature does not specify an underflow policy and neither does the
// paper (deletion "is not so common"); pages are left as they are.
// It charges o.
func (t *Tree) Delete(id seg.ID, o *obs.Op) error {
	s, err := t.Segs.GetObs(id, o)
	if err != nil {
		return err
	}
	t.o = o
	removed, err := t.deleteRec(t.Root, s, id, t.Levels)
	if err != nil {
		return err
	}
	if removed == 0 {
		return seg.ErrNotIndexed
	}
	t.Count--
	return nil
}

func (t *Tree) deleteRec(id store.PageID, s geom.Segment, sid seg.ID, level int) (int, error) {
	n, err := t.ReadNode(id, level)
	if err != nil {
		return 0, err
	}
	if n.Leaf {
		kept := n.Entries[:0]
		removed := 0
		for _, e := range n.Entries {
			if seg.ID(e.Ptr) == sid {
				removed++
				continue
			}
			kept = append(kept, e)
		}
		if removed == 0 {
			return 0, nil
		}
		n.Entries = kept
		return removed, t.WriteNode(id, n)
	}
	total := 0
	for _, e := range n.Entries {
		t.o.NodeComps(1)
		if !e.Rect.IntersectsSegment(s) {
			continue
		}
		r, err := t.deleteRec(store.PageID(e.Ptr), s, sid, level-1)
		if err != nil {
			return 0, err
		}
		total += r
	}
	return total, nil
}
