// Package harness drives the experiments of Hoel & Samet (SIGMOD 1992)
// end to end: it builds the three structures over the six synthetic
// counties and regenerates every table and figure of the evaluation
// section (Table 1, Figure 6, Table 2, Figures 7–9) plus the ablations
// the prose discusses.
package harness

import (
	"fmt"
	"time"

	"segdb/internal/core"
	"segdb/internal/grid"
	"segdb/internal/pmr"
	"segdb/internal/rplus"
	"segdb/internal/rstar"
	"segdb/internal/seg"
	"segdb/internal/store"
	"segdb/internal/tiger"
)

// Structure selects one of the data structures under study.
type Structure int

// The structures of the study plus the two ablation variants.
const (
	RStar Structure = iota
	RPlus
	PMR
	KDB         // pure k-d-B-tree variant of the hybrid R+-tree
	UniformGrid // §2 baseline
	RTree       // classic Guttman R-tree (quadratic split, no reinsertion)
)

// String implements fmt.Stringer.
func (s Structure) String() string {
	switch s {
	case RStar:
		return "R*"
	case RPlus:
		return "R+"
	case PMR:
		return "PMR"
	case KDB:
		return "k-d-B"
	case UniformGrid:
		return "grid"
	case RTree:
		return "R"
	}
	return fmt.Sprintf("Structure(%d)", int(s))
}

// Core returns the three structures compared throughout the paper.
func Core() []Structure { return []Structure{RStar, RPlus, PMR} }

// Options configures a build.
type Options struct {
	PageSize     int
	PoolPages    int
	PMRThreshold int
	// PMRStoreMBR enables the §6 "3-tuple" PMR variant (a bounding
	// rectangle stored with every q-edge).
	PMRStoreMBR bool
	GridCells   int32
	// DisableReinsert turns off R*-tree forced reinsertion (ablation).
	DisableReinsert bool
	// BulkLoad builds the structure bottom-up through the bulk pipeline
	// instead of per-segment insertion. Off by default: Table 1 measures
	// one-at-a-time insertion.
	BulkLoad bool
}

// DefaultOptions returns the configuration of the paper's experiments:
// 1 KB pages, a 16-page buffer pool, PMR splitting threshold 4.
func DefaultOptions() Options {
	return Options{
		PageSize:     store.DefaultPageSize,
		PoolPages:    store.DefaultPoolPages,
		PMRThreshold: 4,
		GridCells:    64,
	}
}

// BuildResult records the Table 1 statistics of one build.
type BuildResult struct {
	Map       string
	Structure Structure
	Segments  int
	SizeBytes int64
	// DiskAccesses counts potential disk operations on the index's own
	// pages during the build (the paper's "disk accesses" column).
	DiskAccesses uint64
	// CPU is the wall-clock build time; only ratios between structures
	// are meaningful (the paper used a 57 MIPS HP 720).
	CPU time.Duration
	// BBoxComps counts the bounding box (R-trees) or bounding bucket
	// (PMR) computations of the build, from the index's own counter: the
	// deterministic currency behind the CPU column's ordering.
	BBoxComps uint64
	// AvgLeafOccupancy is the mean segment count per leaf page or bucket
	// (§7 reports ~36 for R*, ~32 for R+).
	AvgLeafOccupancy float64
}

// Build constructs the chosen structure over the map, reporting build
// statistics. Each build gets a private segment table so its counters are
// isolated, exactly as the per-structure numbers of Table 1 require.
func Build(s Structure, m *tiger.Map, opts Options) (core.Index, BuildResult, error) {
	table := seg.NewTable(opts.PageSize, opts.PoolPages)
	ids, err := m.PopulateTable(table)
	if err != nil {
		return nil, BuildResult{}, err
	}
	pool := store.NewPool(store.NewDisk(opts.PageSize), opts.PoolPages)

	rstarCfg := rstar.DefaultConfig()
	if opts.DisableReinsert {
		rstarCfg.ReinsertFraction = 0
	}
	pmrCfg := pmr.DefaultConfig()
	if opts.PMRThreshold > 0 {
		pmrCfg.SplittingThreshold = opts.PMRThreshold
	}
	pmrCfg.StoreMBR = opts.PMRStoreMBR
	gridCfg := grid.Config{CellsPerSide: opts.GridCells}

	var (
		ix      core.Index
		elapsed time.Duration
		before  store.Stats
	)
	if opts.BulkLoad {
		// Bottom-up build: the whole construction, including the final
		// sequential page writes, is the timed section.
		start := time.Now()
		switch s {
		case RStar:
			ix, err = rstar.BulkLoad(pool, table, rstarCfg, ids)
		case RTree:
			ix, err = rstar.BulkLoad(pool, table, rstar.GuttmanConfig(), ids)
		case RPlus:
			ix, err = rplus.BulkLoad(pool, table, rplus.DefaultConfig(), ids)
		case KDB:
			ix, err = rplus.BulkLoad(pool, table, rplus.KDBConfig(), ids)
		case PMR:
			ix, err = pmr.BulkLoad(pool, table, pmrCfg, ids)
		case UniformGrid:
			ix, err = grid.BulkLoad(pool, table, gridCfg, ids)
		default:
			err = fmt.Errorf("harness: unknown structure %v", s)
		}
		if err != nil {
			return nil, BuildResult{}, fmt.Errorf("%v on %s: %w", s, m.Spec.Name, err)
		}
		elapsed = time.Since(start)
	} else {
		switch s {
		case RStar:
			ix, err = rstar.New(pool, table, rstarCfg)
		case RTree:
			ix, err = rstar.New(pool, table, rstar.GuttmanConfig())
		case RPlus:
			ix, err = rplus.New(pool, table, rplus.DefaultConfig())
		case KDB:
			ix, err = rplus.New(pool, table, rplus.KDBConfig())
		case PMR:
			ix, err = pmr.New(pool, table, pmrCfg)
		case UniformGrid:
			ix, err = grid.New(pool, table, gridCfg)
		default:
			err = fmt.Errorf("harness: unknown structure %v", s)
		}
		if err != nil {
			return nil, BuildResult{}, err
		}
		start := time.Now()
		before = ix.DiskStats()
		for _, id := range ids {
			if err := ix.Insert(id); err != nil {
				return nil, BuildResult{}, fmt.Errorf("%v on %s: %w", s, m.Spec.Name, err)
			}
		}
		elapsed = time.Since(start)
	}

	res := BuildResult{
		Map:          m.Spec.Name,
		Structure:    s,
		Segments:     len(ids),
		SizeBytes:    ix.SizeBytes(),
		DiskAccesses: ix.DiskStats().Sub(before).Accesses(),
		CPU:          elapsed,
		BBoxComps:    ix.NodeComps(),
	}
	switch t := ix.(type) {
	case *rstar.Tree:
		res.AvgLeafOccupancy, _ = t.AvgLeafOccupancy()
	case *rplus.Tree:
		res.AvgLeafOccupancy, _ = t.AvgLeafOccupancy()
	case *pmr.Tree:
		res.AvgLeafOccupancy, _ = t.AvgBlockOccupancy()
	}
	return ix, res, nil
}

// GenerateAll produces the six county maps (deterministic).
func GenerateAll() ([]*tiger.Map, error) {
	var maps []*tiger.Map
	for _, spec := range tiger.Counties() {
		m, err := tiger.Generate(spec)
		if err != nil {
			return nil, err
		}
		maps = append(maps, m)
	}
	return maps, nil
}
