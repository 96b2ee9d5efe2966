package rplus

import (
	"fmt"

	"segdb/internal/geom"
	"segdb/internal/obs"
	"segdb/internal/seg"
	"segdb/internal/store"
)

// Validate checks the hybrid R+-tree invariants:
//   - the child regions of every internal node are pairwise disjoint and
//     tile the node's region exactly (area bookkeeping);
//   - all leaves are at the same level;
//   - occupancy never exceeds the page capacity;
//   - every leaf entry's segment truly intersects the leaf's region;
//   - in the hybrid configuration, leaf entry rects equal segment MBRs.
func (t *Tree) Validate(o *obs.Op) error {
	return t.validate(t.Root, geom.World(), t.Levels, o)
}

func (t *Tree) validate(id store.PageID, region geom.Rect, level int, o *obs.Op) error {
	n, err := t.ReadNode(id, level)
	if err != nil {
		return err
	}
	if n.Leaf != (level == 1) {
		return fmt.Errorf("rplus: page %d leaf=%v at level %d", id, n.Leaf, level)
	}
	if len(n.Entries) > t.Max {
		return fmt.Errorf("rplus: page %d overfull (%d > %d)", id, len(n.Entries), t.Max)
	}
	if n.Leaf {
		for _, e := range n.Entries {
			s, err := t.Segs.GetObs(seg.ID(e.Ptr), o)
			if err != nil {
				return fmt.Errorf("rplus: leaf %d: %w", id, err)
			}
			if !region.IntersectsSegment(s) {
				return fmt.Errorf("rplus: leaf %d region %v does not intersect member segment %d %v", id, region, e.Ptr, s)
			}
			if t.cfg.LeafMBR && e.Rect != s.Bounds() {
				return fmt.Errorf("rplus: leaf %d entry %d rect %v != MBR %v", id, e.Ptr, e.Rect, s.Bounds())
			}
		}
		return nil
	}
	var areaSum int64
	for i, e := range n.Entries {
		if !region.ContainsRect(e.Rect) {
			return fmt.Errorf("rplus: page %d child region %v escapes %v", id, e.Rect, region)
		}
		areaSum += (e.Rect.Width() + 1) * (e.Rect.Height() + 1)
		for j := i + 1; j < len(n.Entries); j++ {
			if e.Rect.Intersects(n.Entries[j].Rect) {
				return fmt.Errorf("rplus: page %d children %d and %d overlap: %v, %v", id, i, j, e.Rect, n.Entries[j].Rect)
			}
		}
		if err := t.validate(store.PageID(e.Ptr), e.Rect, level-1, o); err != nil {
			return err
		}
	}
	if want := (region.Width() + 1) * (region.Height() + 1); areaSum != want {
		return fmt.Errorf("rplus: page %d children cover area %d of region area %d", id, areaSum, want)
	}
	return nil
}
