package segdb

import (
	"fmt"

	"segdb/internal/btree"
	"segdb/internal/core"
	"segdb/internal/grid"
	"segdb/internal/obs"
	"segdb/internal/pmr"
	"segdb/internal/rpage"
	"segdb/internal/rplus"
	"segdb/internal/rstar"
	"segdb/internal/seg"
	"segdb/internal/staging"
	"segdb/internal/store"
)

// rstarConfig builds the R*-tree/classic-R-tree configuration for these
// options. The kinds table below is the only user of the four config
// builders, so an index created, bulk-built or reopened for one kind
// always gets the parameters of the one that wrote the pages.
func (o Options) rstarConfig(kind Kind) rstar.Config {
	cfg := rstar.DefaultConfig()
	if kind == ClassicRTree {
		cfg = rstar.GuttmanConfig()
	}
	cfg.Compression = o.PageCompression
	return cfg
}

// rplusConfig builds the R+-tree/k-d-B-tree configuration.
func (o Options) rplusConfig(kind Kind) rplus.Config {
	cfg := rplus.DefaultConfig()
	if kind == KDBTree {
		cfg = rplus.KDBConfig()
	}
	cfg.Compression = o.PageCompression
	return cfg
}

// pmrConfig builds the PMR quadtree configuration.
func (o Options) pmrConfig(Kind) pmr.Config {
	cfg := pmr.DefaultConfig()
	cfg.SplittingThreshold = o.PMRThreshold
	cfg.StoreMBR = o.PMRStoreMBR
	cfg.Compression = o.PageCompression
	return cfg
}

// gridConfig builds the uniform grid configuration.
func (o Options) gridConfig(Kind) grid.Config {
	c := grid.DefaultConfig()
	c.Compression = o.PageCompression
	return c
}

// The five implementers of the index contract: four disk structures and
// the staged-ingest read view.
var (
	_ core.Index = (*rstar.Tree)(nil)
	_ core.Index = (*rplus.Tree)(nil)
	_ core.Index = (*pmr.Tree)(nil)
	_ core.Index = (*grid.Grid)(nil)
	_ core.Index = (*staging.Merged)(nil)
)

// persistable is what every disk structure adds to core.Index: its
// in-memory state as metadata words, saved beside the disk image.
type persistable interface {
	core.Index
	PersistMeta() []uint64
}

// kindImpl is everything the facade knows about one index kind: how to
// create it empty, bulk-build it over ids, and reattach it to a restored
// disk from metaWords words of metadata.
type kindImpl struct {
	metaWords int
	new       func(o Options, k Kind, pool *store.Pool, table *seg.Table) (persistable, error)
	bulk      func(o Options, k Kind, pool *store.Pool, table *seg.Table, ids []seg.ID, op *obs.Op) (persistable, error)
	restore   func(o Options, k Kind, pool *store.Pool, table *seg.Table, meta []uint64) (persistable, error)
}

// family adapts one index package — its config builder and its New,
// BulkLoad and Restore, which have the same shape in all four packages —
// to a kindImpl. The metadata length is the size of the array the
// package's Restore takes.
func family[C any, T persistable, M [3]uint64 | [4]uint64](
	cfg func(Options, Kind) C,
	create func(*store.Pool, *seg.Table, C) (T, error),
	bulk func(*store.Pool, *seg.Table, C, []seg.ID, *obs.Op) (T, error),
	restore func(*store.Pool, *seg.Table, C, M) (T, error),
) kindImpl {
	var m M
	return kindImpl{
		metaWords: len(m),
		new: func(o Options, k Kind, pool *store.Pool, table *seg.Table) (persistable, error) {
			return create(pool, table, cfg(o, k))
		},
		bulk: func(o Options, k Kind, pool *store.Pool, table *seg.Table, ids []seg.ID, op *obs.Op) (persistable, error) {
			return bulk(pool, table, cfg(o, k), ids, op)
		},
		restore: func(o Options, k Kind, pool *store.Pool, table *seg.Table, meta []uint64) (persistable, error) {
			return restore(pool, table, cfg(o, k), M(meta))
		},
	}
}

// kinds is the one per-kind construction table: Open, the bulk rebuild,
// Load and crash recovery all go through it.
var kinds = map[Kind]kindImpl{
	RStarTree:    family(Options.rstarConfig, rstar.New, rstar.BulkLoadObs, rstar.Restore),
	ClassicRTree: family(Options.rstarConfig, rstar.New, rstar.BulkLoadObs, rstar.Restore),
	RPlusTree:    family(Options.rplusConfig, rplus.New, rplus.BulkLoadObs, rplus.Restore),
	KDBTree:      family(Options.rplusConfig, rplus.New, rplus.BulkLoadObs, rplus.Restore),
	PMRQuadtree:  family(Options.pmrConfig, pmr.New, pmr.BulkLoadObs, pmr.Restore),
	UniformGrid:  family(Options.gridConfig, grid.New, grid.BulkLoadObs, grid.Restore),
}

// implOf looks a kind up in the table; the error for a kind outside it
// (a corrupt file header, an out-of-range constant) lives here.
func implOf(kind Kind) (kindImpl, error) {
	impl, ok := kinds[kind]
	if !ok {
		return kindImpl{}, fmt.Errorf("segdb: unknown index kind %d", int(kind))
	}
	return impl, nil
}

// restoreIndex reconstructs the index of the given kind over an
// already-populated pool and table from its persist metadata. Shared by
// Load (metadata from the image header) and crash recovery (metadata
// from the newest committed WAL transaction).
func restoreIndex(kind Kind, opts Options, pool *store.Pool, table *seg.Table, meta []uint64) (persistable, error) {
	impl, err := implOf(kind)
	if err != nil {
		return nil, err
	}
	if len(meta) != impl.metaWords {
		return nil, fmt.Errorf("segdb: index metadata has %d words, want %d", len(meta), impl.metaWords)
	}
	return impl.restore(opts, kind, pool, table, meta)
}

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
	valSize := db.btreeValSize()
	for id := 0; id < disk.PageCount(); id++ {
		data, err := disk.RawPage(store.PageID(id))
		if err != nil {
			return PageFormatStats{}, err
		}
		switch db.kind {
		case PMRQuadtree, UniformGrid:
			info, ok := btree.InspectPage(data, valSize)
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
		default:
			info, ok := rpage.Inspect(data)
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
	}
	return stats, nil
}

// btreeValSize returns the per-key payload size of the B+-tree backing
// the index, 0 for the R-tree family.
func (db *DB) btreeValSize() int {
	if db.kind == PMRQuadtree && db.opts.PMRStoreMBR {
		return 8
	}
	return 0
}
