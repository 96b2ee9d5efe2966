package segdb

import (
	"segdb/internal/kinds"
	"segdb/internal/store"
)

// PageFormatStats summarizes the physical format of the index's pages:
// how many pages each on-disk encoding accounts for, and the effective
// leaf fanout the format achieves. `lsdb verify` prints it, and
// TestCompressionShrinksIndex holds level 1 to its fanout claim with
// it.
type PageFormatStats struct {
	// Level is the database's configured compression level (0 or 1).
	Level int
	// Pages is the number of index pages inspected.
	Pages int
	// Formats counts pages by physical encoding: "v1" (classic),
	// "v3-16" (compressed R-tree-family nodes, 16-bit lanes), "v3"
	// (delta-coded B+-tree leaves).
	Formats map[string]int
	// Leaves and LeafEntries give the effective leaf fanout
	// LeafEntries/Leaves — the quantity the paper's occupancy numbers
	// (§7) measure.
	Leaves      int
	LeafEntries int
	// BytesUsed is the total encoded payload across inspected pages;
	// BytesUsed/Pages is the mean occupied bytes per page.
	BytesUsed int
}

// AvgLeafFanout returns LeafEntries/Leaves (0 when there are no leaves).
func (s PageFormatStats) AvgLeafFanout() float64 {
	if s.Leaves == 0 {
		return 0
	}
	return float64(s.LeafEntries) / float64(s.Leaves)
}

// AvgBytesPerPage returns BytesUsed/Pages (0 when there are no pages).
func (s PageFormatStats) AvgBytesPerPage() float64 {
	if s.Pages == 0 {
		return 0
	}
	return float64(s.BytesUsed) / float64(s.Pages)
}

// PageFormatStats walks the index's disk image and classifies every
// page. The pool is flushed first so the stored bytes reflect current
// state; the walk itself reads the medium directly and charges no
// simulated disk accesses.
func (db *DB) PageFormatStats() (PageFormatStats, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.pool.Flush(); err != nil {
		return PageFormatStats{}, err
	}
	stats := PageFormatStats{Level: db.opts.PageCompression, Formats: make(map[string]int)}
	disk := db.pool.Disk()
	inspect := kinds.PageInspector(db.kind, db.opts.Config)
	for id := 0; id < disk.PageCount(); id++ {
		data, err := disk.RawPage(store.PageID(id))
		if err != nil {
			return PageFormatStats{}, err
		}
		info, ok := inspect(data)
		if !ok {
			continue
		}
		stats.Pages++
		stats.Formats[info.Format]++
		stats.BytesUsed += info.BytesUsed
		if info.Leaf {
			stats.Leaves++
			stats.LeafEntries += info.Entries
		}
	}
	return stats, nil
}
