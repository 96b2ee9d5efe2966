// Package kinds is the one per-kind construction table: for each of the
// six index kinds it knows how to create the index empty, bulk-build it
// and reattach it to a restored disk. The segdb facade (Open, the bulk
// rebuild, Load and crash recovery) and the paper harness both build
// through it, so every experiment measures an index the facade would
// build.
package kinds

import (
	"fmt"
	"strings"

	"segdb/internal/btree"
	"segdb/internal/core"
	"segdb/internal/grid"
	"segdb/internal/obs"
	"segdb/internal/pmr"
	"segdb/internal/rpage"
	"segdb/internal/rplus"
	"segdb/internal/rstar"
	"segdb/internal/seg"
	"segdb/internal/store"
)

// Kind selects one of the six index kinds.
type Kind int

// The six index kinds: the three structures of the study, the two
// ablation variants and the §2 baseline.
const (
	RStar       Kind = iota // R*-tree
	RPlus                   // hybrid R+-tree
	PMR                     // PMR quadtree
	KDB                     // pure k-d-B-tree variant of the hybrid R+-tree
	UniformGrid             // §2 baseline
	RTree                   // classic Guttman R-tree (quadratic split, no reinsertion)
)

// names holds each kind's String, Label and flag name.
var names = [...][3]string{
	RStar:       {"R*-tree", "R*", "rstar"},
	RPlus:       {"R+-tree", "R+", "rplus"},
	PMR:         {"PMR quadtree", "PMR", "pmr"},
	KDB:         {"k-d-B-tree", "k-d-B", "kdb"},
	UniformGrid: {"uniform grid", "grid", "grid"},
	RTree:       {"R-tree", "R", "rtree"},
}

// String implements fmt.Stringer with the kind's full name.
func (k Kind) String() string { return k.name(0) }

// Label is the kind's short name, the one the paper harness prints in
// its tables and the root benchmarks use as sub-benchmark names.
func (k Kind) Label() string { return k.name(1) }

// ByFlag looks a kind up by its flag name, the value of lsdb's -index.
func ByFlag(flag string) (Kind, bool) {
	for k, n := range names {
		if n[2] == flag {
			return Kind(k), true
		}
	}
	return 0, false
}

// Flags lists the flag names, "|"-separated, for help and error text.
func Flags() string {
	flags := make([]string, len(names))
	for k, n := range names {
		flags[k] = n[2]
	}
	return strings.Join(flags, "|")
}

func (k Kind) name(i int) string {
	if k < 0 || int(k) >= len(names) {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return names[k][i]
}

// Config is what construction reads of a database's configuration.
type Config struct {
	PageSize     int
	PoolPages    int
	PMRThreshold int
	// PMRStoreMBR enables the §6 "3-tuple" PMR variant (a bounding
	// rectangle stored with every q-edge).
	PMRStoreMBR bool
	// PageCompression is the page format new writes produce, 0 or 1.
	PageCompression int
	// DisableReinsert turns off R*-tree forced reinsertion. Only the
	// paper harness's Ablation 2 sets it; no image records it.
	DisableReinsert bool
}

// DefaultConfig returns the configuration of the paper's experiments:
// 1 KB pages, a 16-page buffer pool, PMR splitting threshold 4.
func DefaultConfig() Config {
	return Config{
		PageSize:     store.DefaultPageSize,
		PoolPages:    store.DefaultPoolPages,
		PMRThreshold: 4,
	}
}

// rstarConfig builds the R*-tree/classic-R-tree configuration. The table
// below is the only user of the four config builders, so an index
// created, bulk-built or reopened for one kind always gets the
// parameters of the one that wrote the pages.
func rstarConfig(c Config, k Kind) rstar.Config {
	cfg := rstar.DefaultConfig()
	if k == RTree {
		cfg = rstar.GuttmanConfig()
	}
	if c.DisableReinsert {
		cfg.ReinsertFraction = 0
	}
	cfg.Compression = c.PageCompression
	return cfg
}

// rplusConfig builds the R+-tree/k-d-B-tree configuration.
func rplusConfig(c Config, k Kind) rplus.Config {
	cfg := rplus.DefaultConfig()
	if k == KDB {
		cfg = rplus.KDBConfig()
	}
	cfg.Compression = c.PageCompression
	return cfg
}

// pmrConfig builds the PMR quadtree configuration.
func pmrConfig(c Config, _ Kind) pmr.Config {
	cfg := pmr.DefaultConfig()
	cfg.SplittingThreshold = c.PMRThreshold
	cfg.StoreMBR = c.PMRStoreMBR
	cfg.Compression = c.PageCompression
	return cfg
}

// gridConfig builds the uniform grid configuration.
func gridConfig(c Config, _ Kind) grid.Config {
	cfg := grid.DefaultConfig()
	cfg.Compression = c.PageCompression
	return cfg
}

// Index is what every disk structure adds to core.Index: its in-memory
// state as metadata words, saved beside the disk image.
type Index interface {
	core.Index
	PersistMeta() []uint64
}

// impl is everything there is to know about building one kind: how to
// create it empty, bulk-build it over ids, and reattach it to a restored
// disk from metaWords words of metadata.
type impl struct {
	metaWords int
	new       func(c Config, k Kind, pool *store.Pool, table *seg.Table) (Index, error)
	bulk      func(c Config, k Kind, pool *store.Pool, table *seg.Table, ids []seg.ID, op *obs.Op) (Index, error)
	restore   func(c Config, k Kind, pool *store.Pool, table *seg.Table, meta []uint64) (Index, error)
}

// family adapts one index package — its config builder and its New,
// BulkLoad and Restore, which have the same shape in all four packages —
// to an impl. The metadata length is the size of the array the
// package's Restore takes.
func family[C any, T Index, M [3]uint64 | [4]uint64](
	cfg func(Config, Kind) C,
	create func(*store.Pool, *seg.Table, C) (T, error),
	bulk func(*store.Pool, *seg.Table, C, []seg.ID, *obs.Op) (T, error),
	restore func(*store.Pool, *seg.Table, C, M) (T, error),
) impl {
	var m M
	return impl{
		metaWords: len(m),
		new: func(c Config, k Kind, pool *store.Pool, table *seg.Table) (Index, error) {
			return create(pool, table, cfg(c, k))
		},
		bulk: func(c Config, k Kind, pool *store.Pool, table *seg.Table, ids []seg.ID, op *obs.Op) (Index, error) {
			return bulk(pool, table, cfg(c, k), ids, op)
		},
		restore: func(c Config, k Kind, pool *store.Pool, table *seg.Table, meta []uint64) (Index, error) {
			return restore(pool, table, cfg(c, k), M(meta))
		},
	}
}

// impls is the one per-kind construction list.
var impls = map[Kind]impl{
	RStar:       family(rstarConfig, rstar.New, rstar.BulkLoadObs, rstar.Restore),
	RTree:       family(rstarConfig, rstar.New, rstar.BulkLoadObs, rstar.Restore),
	RPlus:       family(rplusConfig, rplus.New, rplus.BulkLoadObs, rplus.Restore),
	KDB:         family(rplusConfig, rplus.New, rplus.BulkLoadObs, rplus.Restore),
	PMR:         family(pmrConfig, pmr.New, pmr.BulkLoadObs, pmr.Restore),
	UniformGrid: family(gridConfig, grid.New, grid.BulkLoadObs, grid.Restore),
}

// implOf looks a kind up in the table; the error for a kind outside it
// (a corrupt file header, an out-of-range constant) lives here.
func implOf(k Kind) (impl, error) {
	im, ok := impls[k]
	if !ok {
		return impl{}, fmt.Errorf("segdb: unknown index kind %d", int(k))
	}
	return im, nil
}

// Check returns the unknown-kind error for a kind outside the table, so
// that a caller can refuse it before reading or allocating anything.
func Check(k Kind) error {
	_, err := implOf(k)
	return err
}

// New creates an empty index of kind k over pool and table.
func New(k Kind, c Config, pool *store.Pool, table *seg.Table) (Index, error) {
	im, err := implOf(k)
	if err != nil {
		return nil, err
	}
	return im.new(c, k, pool, table)
}

// Bulk builds an index of kind k bottom-up over ids, charging the build
// to op, through the bulk pipeline (every page written once).
func Bulk(k Kind, c Config, pool *store.Pool, table *seg.Table, ids []seg.ID, op *obs.Op) (Index, error) {
	im, err := implOf(k)
	if err != nil {
		return nil, err
	}
	return im.bulk(c, k, pool, table, ids, op)
}

// Restore reconstructs the index of kind k over an already-populated
// pool and table from its persist metadata, read from an image header by
// Load and so by crash recovery, which loads the last checkpoint.
func Restore(k Kind, c Config, pool *store.Pool, table *seg.Table, meta []uint64) (Index, error) {
	im, err := implOf(k)
	if err != nil {
		return nil, err
	}
	if len(meta) != im.metaWords {
		return nil, fmt.Errorf("segdb: index metadata has %d words, want %d", len(meta), im.metaWords)
	}
	return im.restore(c, k, pool, table, meta)
}

// PageInspector returns the classifier of kind k's index pages: the
// B+-tree's for the two kinds stored as a linear key space in one (PMR
// quadtree, uniform grid), whose leaves carry an 8-byte rectangle per key
// in the PMR StoreMBR variant, and the R-tree page's for the other four.
// The two page formats report the same four facts.
func PageInspector(k Kind, c Config) func(data []byte) (rpage.PageInfo, bool) {
	if k != PMR && k != UniformGrid {
		return rpage.Inspect
	}
	valSize := 0
	if k == PMR && c.PMRStoreMBR {
		valSize = 8
	}
	return func(data []byte) (rpage.PageInfo, bool) {
		info, ok := btree.InspectPage(data, valSize)
		return rpage.PageInfo(info), ok
	}
}
