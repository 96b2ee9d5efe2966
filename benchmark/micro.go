package main

import (
	"fmt"
	"math/rand"
	"time"

	"segdb"
	"segdb/internal/btree"
	"segdb/internal/geom"
	"segdb/internal/kernel"
	"segdb/internal/pmr"
	"segdb/internal/rpage"
	"segdb/internal/rstar"
	"segdb/internal/seg"
	"segdb/internal/staging"
	"segdb/internal/store"
)

// The micro-benchmarks time single layers from outside, around their
// exported functions, over real inputs: pages harvested from an index
// the benchmark bulk-builds itself, a pool cycled past its capacity, a
// memtable filled to half the compaction threshold.

// microSet selects which layers a workload's traced run times.
type microSet uint

const (
	microPool      microSet = 1 << iota // store.pool_*, seg.get_ns
	microRTree                          // rpage.*, kernel.*
	microBTree                          // btree.*
	microStaging                        // staging.*
	microWALStaged                      // store.wal_* with staged records
	microWALPages                       // store.wal_* with page records
)

// microSink keeps results alive so the compiler cannot drop the calls.
var microSink uint64

// timePerCall runs batch (which makes calls calls) repeatedly for about
// budget, at least five times, and returns the median nanoseconds per
// call.
func timePerCall(budget time.Duration, calls int, batch func()) float64 {
	batch() // warm caches and pools
	var perCall []float64
	deadline := time.Now().Add(budget)
	for len(perCall) < 5 || time.Now().Before(deadline) {
		start := time.Now()
		batch()
		perCall = append(perCall, float64(time.Since(start))/float64(calls))
	}
	return median(perCall)
}

func runMicro(cfg *config, c *collector, set microSet, segs []segdb.Segment, level int) error {
	if set&microPool != 0 {
		if err := microPoolAndTable(cfg, c, segs); err != nil {
			return err
		}
	}
	if set&microRTree != 0 {
		if err := microRTreePages(cfg, c, segs, level); err != nil {
			return err
		}
	}
	if set&microBTree != 0 {
		if err := microBTreePages(cfg, c, segs, level); err != nil {
			return err
		}
	}
	if set&microStaging != 0 {
		microStagingMem(cfg, c)
	}
	if set&(microWALStaged|microWALPages) != 0 {
		if err := microWAL(cfg, c, set&microWALPages != 0); err != nil {
			return err
		}
	}
	return nil
}

// microPoolAndTable times a pool request that hits, one that misses, and
// a segment-table fetch, all at the default 16-page pool.
func microPoolAndTable(cfg *config, c *collector, segs []segdb.Segment) error {
	const pages = 4 * store.DefaultPoolPages
	pool := store.NewPool(store.NewDisk(store.DefaultPageSize), store.DefaultPoolPages)
	ids := make([]store.PageID, pages)
	for i := range ids {
		id, _, err := pool.Allocate()
		if err != nil {
			return err
		}
		pool.Unpin(id, true)
		ids[i] = id
	}
	if err := pool.Flush(); err != nil {
		return err
	}
	var perr error
	cycle := func(ids []store.PageID) func() {
		return func() {
			for _, id := range ids {
				data, err := pool.Get(id)
				if err != nil {
					perr = err
					return
				}
				microSink += uint64(data[0])
				pool.Unpin(id, false)
			}
		}
	}
	// Half the pool's pages stay resident; four times its pages, visited
	// in order, evict each other before they come round again.
	hot := ids[:store.DefaultPoolPages/2]
	c.add("store.pool_hit_ns", timePerCall(cfg.microBudget, len(hot), cycle(hot)))
	c.add("store.pool_miss_ns", timePerCall(cfg.microBudget, len(ids), cycle(ids)))
	if perr != nil {
		return perr
	}

	table := seg.NewTable(store.DefaultPageSize, store.DefaultPoolPages)
	for _, s := range segs {
		if _, err := table.Append(s); err != nil {
			return err
		}
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	probe := make([]seg.ID, 4096)
	for i := range probe {
		probe[i] = seg.ID(rng.Intn(len(segs)))
	}
	c.add("seg.get_ns", timePerCall(cfg.microBudget, len(probe), func() {
		for _, id := range probe {
			s, err := table.Get(id)
			if err != nil {
				perr = err
				return
			}
			microSink += uint64(s.P1.X)
		}
	}))
	return perr
}

// harvest bulk-builds a standalone index over segs with build, flushes
// it, and returns copies of the raw pages keep accepts.
func harvest(segs []segdb.Segment, build func(pool *store.Pool, table *seg.Table, ids []seg.ID) error, keep func(page []byte) bool) ([][]byte, error) {
	disk := store.NewDisk(store.DefaultPageSize)
	pool := store.NewPool(disk, store.DefaultPoolPages)
	table := seg.NewTable(store.DefaultPageSize, store.DefaultPoolPages)
	ids := make([]seg.ID, len(segs))
	for i, s := range segs {
		id, err := table.Append(s)
		if err != nil {
			return nil, err
		}
		ids[i] = id
	}
	if err := build(pool, table, ids); err != nil {
		return nil, err
	}
	if err := pool.Flush(); err != nil {
		return nil, err
	}
	var pages [][]byte
	for id := 0; id < disk.PageCount(); id++ {
		data, err := disk.RawPage(store.PageID(id))
		if err != nil {
			continue // a freed page
		}
		if keep(data) {
			pages = append(pages, append([]byte(nil), data...))
		}
	}
	if len(pages) == 0 {
		return nil, fmt.Errorf("harvested no pages")
	}
	return pages, nil
}

// microRTreePages times the node decode and the three node kernels over
// every page of a bulk-built R*-tree.
func microRTreePages(cfg *config, c *collector, segs []segdb.Segment, level int) error {
	rcfg := rstar.DefaultConfig()
	rcfg.Compression = level
	pages, err := harvest(segs, func(pool *store.Pool, table *seg.Table, ids []seg.ID) error {
		_, err := rstar.BulkLoad(pool, table, rcfg, ids)
		return err
	}, func(page []byte) bool {
		info, ok := rpage.Inspect(page)
		return ok && info.Entries > 0
	})
	if err != nil {
		return fmt.Errorf("rstar pages: %w", err)
	}
	nodes := make([]*rpage.SoA, len(pages))
	entries := 0
	for i, p := range pages {
		if nodes[i], err = rpage.DecodeSoA(p); err != nil {
			return err
		}
		entries += nodes[i].Len()
	}
	c.add("rpage.entries_per_page", float64(entries)/float64(len(pages)))
	var derr error
	c.add("rpage.decode_ns_per_page", timePerCall(cfg.microBudget, len(pages), func() {
		for _, p := range pages {
			n, err := rpage.DecodeSoA(p)
			if err != nil {
				derr = err
				return
			}
			microSink += uint64(n.Len())
		}
	}))
	if derr != nil {
		return derr
	}

	// One query per node, cycled, so the branch predictor cannot learn a
	// node's answer. The kernels cover a node in LaneWidth chunks, the
	// way the tree's own search loop calls them.
	rng := rand.New(rand.NewSource(cfg.seed))
	queries := make([]geom.Rect, len(nodes))
	points := make([]geom.Point, len(nodes))
	for i := range queries {
		queries[i] = randWindow(rng, 100, 500)
		points[i] = randPoint(rng)
	}
	overNodes := func(visit func(n *rpage.SoA, base, end, i int)) func() {
		return func() {
			for i, n := range nodes {
				for base := 0; base < n.Len(); base += kernel.LaneWidth {
					visit(n, base, min(base+kernel.LaneWidth, n.Len()), i)
				}
			}
		}
	}
	c.add("kernel.intersect_ns_per_node", timePerCall(cfg.microBudget, len(nodes), overNodes(func(n *rpage.SoA, base, end, i int) {
		if n.Packed != nil {
			microSink ^= kernel.IntersectMaskPacked(n.Packed[base:end], queries[i])
		} else {
			microSink ^= kernel.IntersectMask(n.Xmin[base:end], n.Ymin[base:end], n.Xmax[base:end], n.Ymax[base:end], queries[i])
		}
	})))
	c.add("kernel.intersect_ref_ns_per_node", timePerCall(cfg.microBudget, len(nodes), overNodes(func(n *rpage.SoA, base, end, i int) {
		microSink ^= kernel.RefIntersectMask(n.Xmin[base:end], n.Ymin[base:end], n.Xmax[base:end], n.Ymax[base:end], queries[i])
	})))
	dist := make([]float64, rpage.CapacityLevel(store.DefaultPageSize, 2))
	c.add("kernel.mindist_ns_per_node", timePerCall(cfg.microBudget, len(nodes), func() {
		for i, n := range nodes {
			kernel.MinDistLB(n.Xmin, n.Ymin, n.Xmax, n.Ymax, points[i], dist[:n.Len()])
		}
		microSink += uint64(dist[0])
	}))
	return nil
}

// microBTreePages times the leaf decode over every leaf of a bulk-built
// PMR quadtree's B+-tree.
func microBTreePages(cfg *config, c *collector, segs []segdb.Segment, level int) error {
	pcfg := pmr.DefaultConfig()
	pcfg.Compression = level
	const valSize = 0 // 2-tuples: the default PMR variant stores no q-edge rectangle
	pages, err := harvest(segs, func(pool *store.Pool, table *seg.Table, ids []seg.ID) error {
		_, err := pmr.BulkLoad(pool, table, pcfg, ids)
		return err
	}, func(page []byte) bool {
		info, ok := btree.InspectPage(page, valSize)
		return ok && info.Leaf && info.Entries > 0
	})
	if err != nil {
		return fmt.Errorf("pmr leaves: %w", err)
	}
	entries := 0
	for _, p := range pages {
		n, err := btree.DecodePage(p, valSize)
		if err != nil {
			return err
		}
		entries += n
	}
	c.add("btree.leaf_entries_per_page", float64(entries)/float64(len(pages)))
	var derr error
	c.add("btree.leaf_decode_ns_per_page", timePerCall(cfg.microBudget, len(pages), func() {
		for _, p := range pages {
			n, err := btree.DecodePage(p, valSize)
			if err != nil {
				derr = err
				return
			}
			microSink += uint64(n)
		}
	}))
	return derr
}

// stagedFill is half the default compaction threshold: the memtable's
// mean size between two compactions.
const stagedFill = 2048

func microStagingMem(cfg *config, c *collector) {
	rng := rand.New(rand.NewSource(cfg.seed))
	adds := writeStream(rng, stagedFill)
	var mem *staging.Mem
	fill := func() {
		mem = staging.NewMem()
		for i, w := range adds {
			if !w.Del {
				mem.Add(seg.ID(i), w.Seg)
			}
		}
	}
	c.add("staging.add_ns", timePerCall(cfg.microBudget, stagedFill, fill))
	windows := windowStream(rng, 1024, 100, 500)
	count := func(seg.ID, geom.Segment) bool { microSink++; return true }
	c.add("staging.window_ns", timePerCall(cfg.microBudget, len(windows), func() {
		for i := range windows {
			mem.Window(mem.Len(), uint64(mem.Len()), windows[i].Rect, count, nil)
		}
	}))
}

// microWAL times what the log does for one acknowledged write: one
// record (a staged op, or a page image in in-place mode) and the commit
// that seals and syncs it, on an in-memory file system.
func microWAL(cfg *config, c *collector, pageRecords bool) error {
	const records = 1024
	page := make([]byte, store.DefaultPageSize)
	var (
		werr  error
		bytes int64
		n     int64
	)
	ns := timePerCall(cfg.microBudget, records, func() {
		wal, err := store.CreateWAL(store.NewMemWALFS(), "wal")
		if err != nil {
			werr = err
			return
		}
		for i := 0; i < records; i++ {
			if pageRecords {
				err = wal.AppendPage(0, store.PageID(i), page)
			} else {
				err = wal.AppendStaged(store.WALStagedOp{ID: uint32(i), Coords: [4]int32{1, 2, 3, 4}})
			}
			if err == nil {
				err = wal.AppendCommit(store.WALCommit{Epoch: 1, Seq: uint64(i), TableCount: uint32(i)})
			}
			if err != nil {
				werr = err
				return
			}
		}
		bytes += wal.Size()
		n += records
		werr = wal.Close()
	})
	if werr != nil {
		return werr
	}
	c.add("store.wal_append_ns", ns)
	c.add("store.wal_bytes_per_record", float64(bytes)/float64(n))
	return nil
}
