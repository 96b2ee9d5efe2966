package pmr

import (
	"fmt"

	"segdb/internal/obs"
	"segdb/internal/seg"
)

// Validate checks the PMR quadtree invariants:
//   - the occupied blocks form an antichain (no block nests inside
//     another — entries live only at leaves of the decomposition);
//   - every q-edge's segment geometrically intersects its block;
//   - block occupancy never exceeds splitting threshold + block depth
//     (the bound proved in [19] and quoted in §3 of the paper);
//   - the underlying B-tree validates;
//   - every indexed segment appears in exactly the leaf blocks that it
//     intersects (checked via the same descent insertion uses).
func (t *Tree) Validate(o *obs.Op) error {
	if err := t.bt.Validate(); err != nil {
		return err
	}
	blocks, err := t.LeafBlocks()
	if err != nil {
		return err
	}
	// Antichain: in Z-order, a container immediately precedes its first
	// nested block, so adjacent-pair checks suffice (block intervals are
	// laminar).
	for i := 1; i < len(blocks); i++ {
		if blocks[i-1].Contains(blocks[i]) || blocks[i].Contains(blocks[i-1]) {
			return fmt.Errorf("pmr: nested occupied blocks %v and %v", blocks[i-1], blocks[i])
		}
	}
	segsSeen := make(map[seg.ID]struct{})
	var order []seg.ID // segsSeen in first-seen order, so the check's page requests repeat
	for _, c := range blocks {
		exLo, exHi := exactRange(c)
		var members []seg.ID
		if err := t.bt.Scan(exLo, exHi, func(k uint64) bool {
			members = append(members, keySeg(k))
			return true
		}, nil); err != nil {
			return err
		}
		// The threshold+depth bound holds only while splitting is still
		// permitted; blocks pinned at MaxDepth absorb arbitrarily many
		// coincident segments.
		if max := t.cfg.SplittingThreshold + c.Depth(); c.Depth() < t.cfg.MaxDepth && len(members) > max {
			return fmt.Errorf("pmr: block %v at depth %d holds %d segments, bound is %d",
				c.Block(), c.Depth(), len(members), max)
		}
		for _, id := range members {
			s, err := t.table.GetObs(id, o)
			if err != nil {
				return err
			}
			if !touches(c, s) {
				return fmt.Errorf("pmr: segment %d %v does not touch its block %v", id, s, c.Block())
			}
			if _, ok := segsSeen[id]; !ok {
				segsSeen[id] = struct{}{}
				order = append(order, id)
			}
		}
	}
	if len(segsSeen) != t.count {
		return fmt.Errorf("pmr: %d distinct segments stored, count is %d", len(segsSeen), t.count)
	}
	// Completeness: every stored segment is present in every leaf it
	// intersects.
	for _, id := range order {
		s, err := t.table.GetObs(id, o)
		if err != nil {
			return err
		}
		leaves, err := t.leavesFor(s, o)
		if err != nil {
			return err
		}
		for _, c := range leaves {
			ok, err := t.bt.Contains(key(c, id))
			if err != nil {
				return err
			}
			if !ok {
				return fmt.Errorf("pmr: segment %d missing from leaf %v it intersects", id, c.Block())
			}
		}
	}
	return nil
}

// AvgBlockOccupancy returns the mean number of q-edges per occupied block
// (§7 observes this is about half the splitting threshold).
func (t *Tree) AvgBlockOccupancy() (float64, error) {
	blocks, err := t.LeafBlocks()
	if err != nil {
		return 0, err
	}
	if len(blocks) == 0 {
		return 0, nil
	}
	return float64(t.bt.Len()) / float64(len(blocks)), nil
}
