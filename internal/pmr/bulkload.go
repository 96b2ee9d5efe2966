package pmr

import (
	"cmp"
	"fmt"
	"slices"

	"segdb/internal/btree"
	"segdb/internal/bulk"
	"segdb/internal/geom"
	"segdb/internal/obs"
	"segdb/internal/seg"
	"segdb/internal/store"
)

// BulkLoad builds a PMR quadtree over the given segments bottom-up: the
// whole decomposition is computed in memory by one top-down sweep —
// a block splits when more than SplittingThreshold segments touch it
// (and it is above MaxDepth) — and the resulting q-edge keys, already in
// Z-order, are fed to the B+-tree's bottom-up builder, which writes each
// page exactly once, sequentially. Incremental insertion instead splits
// blocks one threshold-crossing at a time, rewriting the same B-tree
// pages over and over; the sweep removes all of that traffic.
//
// The decomposition differs slightly from the incremental one — the
// paper's probabilistic rule splits a block only once per triggering
// insertion, so incremental leaves may exceed the threshold, while the
// sweep splits until occupancy fits (or MaxDepth pins the block). Both
// satisfy Validate's invariants and answer every query identically; only
// the block boundaries (and so the per-query constants) can differ.
//
// The sweep runs on the calling goroutine and visits quadrants in order,
// and all page writes happen sequentially afterwards, so the disk image
// is deterministic.
func BulkLoad(pool *store.Pool, table *seg.Table, cfg Config, ids []seg.ID) (*Tree, error) {
	return BulkLoadObs(pool, table, cfg, ids, nil)
}

// BulkLoadObs is BulkLoad charging o the build's segment fetches and the
// block tests of its decomposition sweep.
func BulkLoadObs(pool *store.Pool, table *seg.Table, cfg Config, ids []seg.ID, o *obs.Op) (*Tree, error) {
	if cfg.SplittingThreshold < 1 {
		return nil, fmt.Errorf("pmr: invalid splitting threshold %d", cfg.SplittingThreshold)
	}
	if cfg.MaxDepth < 1 || cfg.MaxDepth > geom.MaxDepth {
		return nil, fmt.Errorf("pmr: invalid max depth %d", cfg.MaxDepth)
	}
	entries, err := bulk.Fetch(table, ids, o)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if !geom.World().IntersectsSegment(e.Seg) {
			return nil, fmt.Errorf("pmr: segment %v outside the world", e.Seg)
		}
	}
	// Morton-order front end: entries of one quadrant become (mostly)
	// contiguous runs, so the partition sweep below streams memory.
	bulk.SortByMorton(entries)

	// One in-memory sweep computes the leaf blocks. runs collects the
	// occupied leaves in Z-order, as the recursion visits quadrants in
	// order; empty leaves are never materialized (they are not stored —
	// queries reconstruct them from the occupied antichain, exactly as
	// with incremental builds).
	type leafRun struct {
		c       geom.Code
		members []bulk.Entry
	}
	var runs []leafRun
	var nodeComps uint64
	// scratch[d] collects the members of one depth-d child before they
	// are copied out at their exact size.
	scratch := make([][]bulk.Entry, cfg.MaxDepth+1)
	var decompose func(c geom.Code, members []bulk.Entry)
	decompose = func(c geom.Code, members []bulk.Entry) {
		if len(members) == 0 {
			return
		}
		if len(members) <= cfg.SplittingThreshold || c.Depth() >= cfg.MaxDepth {
			runs = append(runs, leafRun{c: c, members: members})
			return
		}
		for q := 0; q < 4; q++ {
			child := c.Child(q)
			r := reach(child)
			part := scratch[child.Depth()][:0]
			for _, e := range members {
				if r.IntersectsSegment(e.Seg) {
					part = append(part, e)
				}
			}
			scratch[child.Depth()] = part
			nodeComps += uint64(len(members))
			decompose(child, slices.Clone(part))
		}
	}
	decompose(geom.RootCode(), entries)

	// Leaves arrive in Z-order; within each leaf, keys ascend with the
	// segment ID. That makes the concatenated q-edge keys strictly
	// increasing — the exact input contract of btree.BulkLoad.
	total := 0
	for _, r := range runs {
		slices.SortFunc(r.members, func(a, b bulk.Entry) int { return cmp.Compare(a.ID, b.ID) })
		total += len(r.members)
	}
	keys := make([]uint64, 0, total)
	valSize := 0
	var vals []byte
	if cfg.StoreMBR {
		valSize = qedgeValSize
		vals = make([]byte, 0, total*qedgeValSize)
	}
	for _, r := range runs {
		for _, e := range r.members {
			keys = append(keys, key(r.c, e.ID))
			if cfg.StoreMBR {
				vals = append(vals, encodeQEdgeRect(r.c, e.Seg)...)
			}
		}
	}

	bt, err := btree.BulkLoad(pool, valSize, cfg.Compression, total, func(i int) (uint64, []byte) {
		if valSize == 0 {
			return keys[i], nil
		}
		return keys[i], vals[i*qedgeValSize : (i+1)*qedgeValSize]
	})
	if err != nil {
		return nil, fmt.Errorf("pmr: bulk load: %w", err)
	}
	o.NodeComps(nodeComps)
	return &Tree{bt: bt, table: table, cfg: cfg, count: len(ids)}, nil
}
