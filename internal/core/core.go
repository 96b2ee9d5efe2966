// Package core defines the common spatial-index contract and the five
// queries of Hoel & Samet (SIGMOD 1992, §5), together with the metric
// counters used throughout the evaluation.
//
// The three quantities measured in the paper are:
//
//   - disk accesses — buffer-pool misses and write-backs, for both the
//     index pages and the disk-resident segment table;
//   - segment comparisons — fetches of segment geometry from the segment
//     table;
//   - bounding box / bucket computations — geometric predicate evaluations
//     against node rectangles (R-trees) or quadtree blocks (PMR).
//
// Every index implementation charges these counters as it works; the
// harness snapshots them around operations.
package core

import (
	"cmp"

	"segdb/internal/geom"
	"segdb/internal/obs"
	"segdb/internal/seg"
	"segdb/internal/store"
)

// Index is the interface implemented by the structures under study —
// the R*-tree, the hybrid R+-tree and the PMR quadtree of the paper, the
// Guttman R-tree, k-d-B-tree and uniform-grid baselines — and by the
// merged snapshot view a staged-ingest database reads through.
//
// Each of the two index-specific queries has exactly one method, taking
// the per-query observation o: all disk, segment comparison, and node
// computation costs are charged to o in addition to the index's own
// counters, and a canceled query context aborts the traversal at the
// next page fetch with the context's error. A nil o charges nothing and
// checks nothing.
type Index interface {
	// Name identifies the structure ("R*-tree", "R+-tree", "PMR").
	Name() string

	// Insert adds the segment with the given table ID to the index.
	Insert(id seg.ID) error

	// Delete removes a previously inserted segment.
	Delete(id seg.ID) error

	// WindowObs visits every segment whose geometry intersects the closed
	// rectangle r, passing the already-fetched geometry. Each segment is
	// reported exactly once even if stored in several nodes. Traversal
	// stops early when visit returns false.
	WindowObs(r geom.Rect, visit func(id seg.ID, s geom.Segment) bool, o *obs.Op) error

	// NearestKAppendObs appends to dst up to k segments ordered by
	// increasing Euclidean distance from p (the incremental ranking of
	// Hoel & Samet [11]) and returns the extended slice. Fewer than k
	// results means the index ran out of segments. Passing a reused
	// buffer lets warm callers run repeated nearest-neighbor queries
	// without allocating a result slice per call; a nil dst allocates
	// one.
	NearestKAppendObs(p geom.Point, k int, dst []NearestResult, o *obs.Op) ([]NearestResult, error)

	// Table returns the segment table the index points into.
	Table() *seg.Table

	// DiskStats returns the cumulative disk activity of the index's own
	// pages (excluding the segment table, which keeps its own stats).
	DiskStats() store.Stats

	// NodeComps returns the cumulative bounding box (R-trees) or bounding
	// bucket (PMR) computation count.
	NodeComps() uint64

	// SizeBytes returns the storage footprint of the index pages, the
	// quantity in Table 1 (segment table excluded, as in the paper).
	SizeBytes() int64

	// Len returns the number of distinct segments currently indexed.
	Len() int

	// DropCache empties the index's buffer pool for a cold restart,
	// flushing dirty frames first.
	DropCache() error

	// Validate checks the index's structural invariants, returning an
	// error describing the first violation. It is the per-index half of
	// the database-wide integrity check.
	Validate() error
}

// NearestResult describes the outcome of a nearest-line query.
type NearestResult struct {
	ID     seg.ID
	Seg    geom.Segment
	DistSq float64
	Found  bool
}

// CompareNearest orders nearest-line results by ascending DistSq, then
// ascending ID: the total order in which merged k-NN answers (staged and
// base streams, or shards of a router) are delivered.
func CompareNearest(a, b NearestResult) int {
	if c := cmp.Compare(a.DistSq, b.DistSq); c != 0 {
		return c
	}
	return cmp.Compare(a.ID, b.ID)
}

// FirstNearestObs is the paper's nearest-line query (query 3): the first
// neighbor of the incremental ranking. Found is false only when the
// index is empty. The single-element result buffer lives on this frame,
// so the adaptation itself is allocation-free.
func FirstNearestObs(ix Index, p geom.Point, o *obs.Op) (NearestResult, error) {
	var buf [1]NearestResult
	res, err := ix.NearestKAppendObs(p, 1, buf[:0], o)
	if err != nil || len(res) == 0 {
		return NearestResult{}, err
	}
	return res[0], nil
}

// Metrics is a snapshot of the three counters of the study, plus the
// buffer-pool effectiveness counters (hits and total page requests across
// the index and segment-table pools). Hits are free in the paper's
// disk-access currency; Requests = Hits + misses, a total that does not
// depend on how concurrent queries interleave in the caches.
type Metrics struct {
	DiskAccesses uint64
	SegComps     uint64
	NodeComps    uint64
	PoolHits     uint64
	PoolRequests uint64
	// Retries counts disk operations reattempted under the store's
	// RetryPolicy (transient injected faults absorbed instead of
	// surfacing to the caller).
	Retries uint64
	// StagedOps counts mutations absorbed by the in-memory staging tier
	// instead of the disk index (staged-ingest mode); Compactions counts
	// how many times the staging tier was folded into the base index by
	// a bulk rebuild. Both are facade-level counters: Snapshot leaves
	// them zero and DB.Metrics fills them in.
	StagedOps   uint64
	Compactions uint64
	// BulkMerges counts AddBatch calls on a non-empty database that went
	// through the bulk merge path — the batches that, before staged
	// ingest existed, silently degraded to a one-at-a-time Add loop.
	BulkMerges uint64
}

// HitRatio returns the fraction of page requests served from the buffer
// pools without a disk access, or 0 when nothing has been requested.
func (m Metrics) HitRatio() float64 {
	if m.PoolRequests == 0 {
		return 0
	}
	return float64(m.PoolHits) / float64(m.PoolRequests)
}

// Snapshot captures the current cumulative counters of an index and its
// segment table.
func Snapshot(ix Index) Metrics {
	ixStats, tabStats := ix.DiskStats(), ix.Table().DiskStats()
	return Metrics{
		DiskAccesses: ixStats.Accesses() + tabStats.Accesses(),
		SegComps:     ix.Table().Comparisons(),
		NodeComps:    ix.NodeComps(),
		PoolHits:     ixStats.Hits + tabStats.Hits,
		PoolRequests: ixStats.Requests() + tabStats.Requests(),
		Retries:      ixStats.Retries + tabStats.Retries,
	}
}

// Sub returns the per-operation deltas between two snapshots.
func (m Metrics) Sub(prev Metrics) Metrics {
	return Metrics{
		DiskAccesses: m.DiskAccesses - prev.DiskAccesses,
		SegComps:     m.SegComps - prev.SegComps,
		NodeComps:    m.NodeComps - prev.NodeComps,
		PoolHits:     m.PoolHits - prev.PoolHits,
		PoolRequests: m.PoolRequests - prev.PoolRequests,
		Retries:      m.Retries - prev.Retries,
		StagedOps:    m.StagedOps - prev.StagedOps,
		Compactions:  m.Compactions - prev.Compactions,
		BulkMerges:   m.BulkMerges - prev.BulkMerges,
	}
}

// Add accumulates counters (used when averaging over query batches).
func (m Metrics) Add(o Metrics) Metrics {
	return Metrics{
		DiskAccesses: m.DiskAccesses + o.DiskAccesses,
		SegComps:     m.SegComps + o.SegComps,
		NodeComps:    m.NodeComps + o.NodeComps,
		PoolHits:     m.PoolHits + o.PoolHits,
		PoolRequests: m.PoolRequests + o.PoolRequests,
		Retries:      m.Retries + o.Retries,
		StagedOps:    m.StagedOps + o.StagedOps,
		Compactions:  m.Compactions + o.Compactions,
		BulkMerges:   m.BulkMerges + o.BulkMerges,
	}
}

// Measure runs f and returns the metric deltas it caused on ix. All
// counters are atomic, so f may fan work across goroutines; the deltas
// are exact provided every goroutine f started has finished when f
// returns.
func Measure(ix Index, f func() error) (Metrics, error) {
	before := Snapshot(ix)
	err := f()
	return Snapshot(ix).Sub(before), err
}
