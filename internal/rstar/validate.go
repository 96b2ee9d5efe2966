package rstar

import (
	"fmt"

	"segdb/internal/obs"
	"segdb/internal/seg"
	"segdb/internal/store"
)

// Validate checks the R*-tree invariants:
//   - all leaves at the same level;
//   - every internal entry's rectangle equals the MBR of its child;
//   - occupancy between m and M for non-root nodes;
//   - every leaf entry's rectangle equals the bounding box of its segment;
//   - the number of leaf entries matches Len().
func (t *Tree) Validate(o *obs.Op) error {
	leafEntries := 0
	if err := t.validate(t.Root, t.Levels, true, &leafEntries, o); err != nil {
		return err
	}
	if leafEntries != t.Count {
		return fmt.Errorf("rstar: %d leaf entries, count is %d", leafEntries, t.Count)
	}
	return nil
}

func (t *Tree) validate(id store.PageID, level int, isRoot bool, leafEntries *int, o *obs.Op) error {
	n, err := t.ReadNode(id)
	if err != nil {
		return err
	}
	if n.Leaf != (level == 1) {
		return fmt.Errorf("rstar: page %d leaf=%v at level %d", id, n.Leaf, level)
	}
	if len(n.Entries) > t.Max {
		return fmt.Errorf("rstar: page %d overfull (%d > %d)", id, len(n.Entries), t.Max)
	}
	if !isRoot && len(n.Entries) < t.min {
		return fmt.Errorf("rstar: page %d underfull (%d < %d)", id, len(n.Entries), t.min)
	}
	if isRoot && !n.Leaf && len(n.Entries) < 2 {
		return fmt.Errorf("rstar: internal root with %d entries", len(n.Entries))
	}
	if n.Leaf {
		for _, e := range n.Entries {
			s, err := t.Segs.GetObs(seg.ID(e.Ptr), o)
			if err != nil {
				return fmt.Errorf("rstar: leaf page %d: %w", id, err)
			}
			if s.Bounds() != e.Rect {
				return fmt.Errorf("rstar: leaf page %d entry %d rect %v != segment bounds %v", id, e.Ptr, e.Rect, s.Bounds())
			}
		}
		*leafEntries += len(n.Entries)
		return nil
	}
	for _, e := range n.Entries {
		child, err := t.ReadNode(store.PageID(e.Ptr))
		if err != nil {
			return err
		}
		if len(child.Entries) == 0 {
			return fmt.Errorf("rstar: empty child page %d", e.Ptr)
		}
		if mbr := child.MBR(); mbr != e.Rect {
			return fmt.Errorf("rstar: page %d entry rect %v != child %d MBR %v", id, e.Rect, e.Ptr, mbr)
		}
		if err := t.validate(store.PageID(e.Ptr), level-1, false, leafEntries, o); err != nil {
			return err
		}
	}
	return nil
}
