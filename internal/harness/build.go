// Package harness drives the experiments of Hoel & Samet (SIGMOD 1992)
// end to end: it builds the three structures over the six synthetic
// counties and regenerates every table and figure of the evaluation
// section (Table 1, Figure 6, Table 2, Figures 7–9) plus the ablations
// the prose discusses.
package harness

import (
	"fmt"
	"slices"
	"time"

	"segdb/internal/core"
	"segdb/internal/kinds"
	"segdb/internal/obs"
	"segdb/internal/seg"
	"segdb/internal/store"
	"segdb/internal/tiger"
)

// Core returns the three structures compared throughout the paper.
func Core() []kinds.Kind { return []kinds.Kind{kinds.RStar, kinds.RPlus, kinds.PMR} }

// BuildResult records the Table 1 statistics of one build.
type BuildResult struct {
	Segments  int
	SizeBytes int64
	// DiskAccesses counts potential disk operations on the index's own
	// pages during the build (the paper's "disk accesses" column).
	DiskAccesses uint64
	// CPU is the wall-clock build time; only ratios between structures
	// are meaningful (the paper used a 57 MIPS HP 720). BuildTimed sets
	// it to the median of TimedBuilds builds and CPUMin and CPUMax to
	// their spread; Build times its one build and leaves the spread zero.
	CPU, CPUMin, CPUMax time.Duration
	// BBoxComps counts the bounding box (R-trees) or bounding bucket
	// (PMR) computations the build charged to its operation: the
	// deterministic currency behind the CPU column's ordering.
	BBoxComps uint64
	// AvgLeafOccupancy is the mean segment count per leaf page or bucket
	// (§7 reports ~36 for R*, ~32 for R+).
	AvgLeafOccupancy float64
}

// Build constructs the chosen structure over the map by one-at-a-time
// insertion, reporting build statistics. Each build gets a private
// segment table so its counters are isolated, exactly as the
// per-structure numbers of Table 1 require.
func Build(k kinds.Kind, m *tiger.Map, cfg kinds.Config) (core.Index, BuildResult, error) {
	return build(k, m, cfg, false)
}

// BuildBulk is Build through the bulk pipeline: the structure is built
// bottom-up instead of by per-segment insertion.
func BuildBulk(k kinds.Kind, m *tiger.Map, cfg kinds.Config) (core.Index, BuildResult, error) {
	return build(k, m, cfg, true)
}

func build(k kinds.Kind, m *tiger.Map, cfg kinds.Config, bulk bool) (core.Index, BuildResult, error) {
	table := seg.NewTable(cfg.PageSize, cfg.PoolPages)
	ids, err := m.PopulateTable(table)
	if err != nil {
		return nil, BuildResult{}, err
	}
	pool := store.NewPool(store.NewDisk(cfg.PageSize), cfg.PoolPages)

	var (
		ix     kinds.Index
		before store.Stats
		o      obs.Op // the build
	)
	// The timed section is the insert loop, or the whole bottom-up
	// build including its final sequential page writes.
	start := time.Now()
	if bulk {
		ix, err = kinds.Bulk(k, cfg, pool, table, ids, &o)
	} else if ix, err = kinds.New(k, cfg, pool, table); err == nil {
		start, before = time.Now(), ix.DiskStats()
		for _, id := range ids {
			if err = ix.Insert(id, &o); err != nil {
				break
			}
		}
	}
	if err != nil {
		return nil, BuildResult{}, fmt.Errorf("%s on %s: %w", k.Label(), m.Spec.Name, err)
	}
	elapsed := time.Since(start)

	res := BuildResult{
		Segments:     len(ids),
		SizeBytes:    ix.SizeBytes(),
		DiskAccesses: ix.DiskStats().Sub(before).Accesses(),
		CPU:          elapsed,
		BBoxComps:    o.Stats().NodeComps,
	}
	// The R-tree family and the PMR quadtree report their leaf
	// occupancy; the grid has none.
	if t, ok := ix.(interface{ AvgLeafOccupancy() (float64, error) }); ok {
		if res.AvgLeafOccupancy, err = t.AvgLeafOccupancy(); err != nil {
			return nil, BuildResult{}, fmt.Errorf("%s on %s: %w", k.Label(), m.Spec.Name, err)
		}
	}
	return ix, res, nil
}

// TimedBuilds is how many builds a timed cell takes. One build on a
// shared machine varies by a third from run to run, enough to flip the
// order of two structures; the median of five repeats.
const TimedBuilds = 5

// BuildTimed is Build repeated TimedBuilds times: it returns the last
// build, with CPU the median elapsed time and CPUMin and CPUMax the
// fastest and slowest. Every other field is deterministic.
func BuildTimed(k kinds.Kind, m *tiger.Map, cfg kinds.Config) (ix core.Index, br BuildResult, err error) {
	var times [TimedBuilds]time.Duration
	for i := range times {
		if ix, br, err = Build(k, m, cfg); err != nil {
			return nil, BuildResult{}, err
		}
		times[i] = br.CPU
	}
	slices.Sort(times[:])
	br.CPU, br.CPUMin, br.CPUMax = times[TimedBuilds/2], times[0], times[TimedBuilds-1]
	return ix, br, nil
}

// CPUCell formats the build time as "median [min-max]" seconds.
func (r BuildResult) CPUCell() string {
	return fmt.Sprintf("%.2f [%.2f-%.2f]", r.CPU.Seconds(), r.CPUMin.Seconds(), r.CPUMax.Seconds())
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
