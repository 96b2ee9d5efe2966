package grid

import (
	"fmt"
	"slices"

	"segdb/internal/btree"
	"segdb/internal/bulk"
	"segdb/internal/geom"
	"segdb/internal/obs"
	"segdb/internal/seg"
	"segdb/internal/store"
)

// BulkLoadObs builds a uniform grid over the given segments in one pass,
// charging o (which may be nil) the segment fetches and cell
// computations: every (cell, segment) key is generated up front, then
// the full key set is sorted and handed to the B+-tree's bottom-up
// builder, which writes each page exactly once, sequentially.
// Incremental insertion instead descends the B-tree once per q-edge (~4
// entries per segment at the default resolution), faulting and
// splitting pages along the way.
//
// Keys are unique by construction (the segment ID occupies the low bits
// and a sweep visits each cell once), so the sorted order is a strict
// total order and the disk image is deterministic.
func BulkLoadObs(pool *store.Pool, table *seg.Table, cfg Config, ids []seg.ID, o *obs.Op) (*Grid, error) {
	if cfg.CellsPerSide < 1 || cfg.CellsPerSide > geom.WorldSize {
		return nil, fmt.Errorf("grid: invalid resolution %d", cfg.CellsPerSide)
	}
	if geom.WorldSize%cfg.CellsPerSide != 0 {
		return nil, fmt.Errorf("grid: resolution %d does not divide the world size", cfg.CellsPerSide)
	}
	g := &Grid{
		table:    table,
		n:        cfg.CellsPerSide,
		cellSize: geom.WorldSize / cfg.CellsPerSide,
	}
	entries, err := bulk.Fetch(table, ids, o)
	if err != nil {
		return nil, err
	}
	var keys []uint64
	for _, e := range entries {
		_ = g.cellsFor(e.Seg, o, func(cx, cy int32) error {
			keys = append(keys, g.key(cx, cy, e.ID))
			return nil
		}) // the visitor never fails
	}
	slices.Sort(keys)
	bt, err := btree.BulkLoad(pool, 0, cfg.Compression, len(keys), func(i int) (uint64, []byte) {
		return keys[i], nil
	})
	if err != nil {
		return nil, fmt.Errorf("grid: bulk load: %w", err)
	}
	g.bt = bt
	g.count = len(ids)
	return g, nil
}
